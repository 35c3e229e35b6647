"""Synchronization resources for simulated processes.

Two primitives cover everything the reproduction needs:

* :class:`Resource` — a counted semaphore (CPU cores, NIC DMA engines,
  bounded server worker pools).
* :class:`Store` — an unbounded FIFO of items (message queues, work
  queues).

Both hand out plain :class:`~repro.simnet.kernel.Event` objects so they
compose with ``yield`` / ``AllOf`` / ``AnyOf`` like any other event.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.simnet.kernel import Event, SimulationError, Simulator

__all__ = ["Resource", "Store"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource


class Resource:
    """A counted resource with FIFO granting.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)

    or, for the common hold-for-a-duration pattern::

        yield from resource.occupy(duration)
    """

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._users: set[object] = set()
        self._waiting: deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._waiting.append(req)
        return req

    def try_acquire(self) -> Optional[object]:
        """Take a free slot at once, with no event to wait on.

        Returns the holder token to hand to :meth:`release`, or ``None``
        when every slot is held (then :meth:`request` and queue).  A
        slot is only ever free when nobody is waiting, so this never
        jumps the FIFO.
        """
        if len(self._users) >= self.capacity:
            return None
        slot = object()
        self._users.add(slot)
        return slot

    def release(self, request: object) -> None:
        """Give back a slot held by a granted :meth:`request` or by a
        :meth:`try_acquire` token."""
        if request not in self._users:
            raise SimulationError("releasing a request that holds no slot")
        self._users.remove(request)
        while self._waiting and len(self._users) < self.capacity:
            nxt = self._waiting.popleft()
            self._users.add(nxt)
            nxt.succeed()

    def occupy(self, duration: float):
        """Hold one slot for *duration* simulated seconds (generator)."""
        req = self.request()
        yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release(req)


class Store:
    """An unbounded FIFO of items with a blocking ``get``."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Queue *item*; the returned event fires at once."""
        event = Event(self.sim)
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        event.succeed()
        return event

    def get(self) -> Event:
        """The returned event fires with the oldest available item."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
