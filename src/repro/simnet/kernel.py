"""The discrete-event simulation kernel.

A small, self-contained kernel in the style of simpy: simulated
activities are Python generators ("processes") that ``yield`` events.
The :class:`Simulator` owns the virtual clock and an event queue; it
advances time by popping the earliest scheduled event and running its
callbacks, which typically resume the processes waiting on it.

Design notes
------------
* Time is a ``float`` in **seconds**.  Data sizes elsewhere in the code
  base are ``int`` **bytes**; rates are bits/second.
* Events scheduled for the same instant run in FIFO order of scheduling
  (a monotonically increasing sequence number breaks heap ties), so
  simulations are fully deterministic.
* A failed event whose exception is never delivered to a waiting process
  re-raises out of :meth:`Simulator.run` — errors never pass silently.
* A queue entry is either an :class:`Event` or a *bare call*
  (:meth:`Simulator.call_later`): a callable plus its arguments, for a
  timer nothing can wait on or read a value from.  Both draw from one
  sequence counter, so they interleave FIFO.
* A pending timer — a :class:`Timeout` or a bare call's handle — can be
  withdrawn (:meth:`Simulator.cancel`) once what it guarded has
  settled: it never runs and never advances the clock, and every other
  entry keeps its ``(when, seq)`` key, so same-instant ties break as if
  it had never been pushed.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Generator
from typing import Any, Callable, Iterable, Optional

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
]

_PENDING = object()


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel itself."""


class Event:
    """An occurrence at a point in simulated time.

    Events start *pending*; they become *triggered* once scheduled with a
    value (or an exception) and *processed* once the simulator has run
    their callbacks.  Processes wait on events by yielding them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed", "defused")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        #: callables invoked with the event when it is processed
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._processed = False
        #: set when a failure has been delivered to a process and should
        #: not also crash the simulation
        self.defused = False

    @property
    def triggered(self) -> bool:
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        return self._processed

    @property
    def ok(self) -> bool:
        """Whether the event succeeded.  Only meaningful once triggered."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, scheduling it for *now*."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._queue, (sim.now, seq, self, None))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception, scheduling it for *now*."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._queue, (sim.now, seq, self, None))
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run *callback(event)* when the event is processed.

        If the event was already processed the callback is scheduled to
        run immediately (at the current simulated instant) rather than
        being lost — this makes already-completed events safe to wait on.
        """
        if self._processed:
            self.sim.call_later(0.0, callback, self)
        else:
            assert self.callbacks is not None
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else "triggered" if self.triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # NaN fails this too
            raise ValueError(f"delay must be >= 0, got {delay}")
        # Event.__init__ and Simulator._schedule, inlined: a timeout is
        # born triggered, and this is the kernel's hottest constructor.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._ok = True
        self._processed = False
        self.defused = False
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._queue, (sim.now + delay, seq, self, None))


class _Start:
    """What a new process is first resumed with: success, no value."""

    __slots__ = ()
    _ok = True
    _value = None


_START = _Start()


class Process(Event):
    """Wraps a generator; the event triggers when the generator returns.

    The generator's ``return`` value becomes the event value, so parent
    processes can do ``result = yield from sub()`` or wait on a spawned
    process with ``result = yield proc``.
    """

    __slots__ = ("generator", "name")

    def __init__(
        self, sim: "Simulator", generator: Generator, name: str = ""
    ):
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        sim.processes_spawned += 1
        # Kick the process off at the current instant.
        sim.call_later(0.0, self._resume, _START)

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self.generator.send(event._value)
            else:
                event.defused = True
                target = self.generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes may "
                "only yield Event instances"
            )
            self.generator.throw(exc)
            raise exc
        if target.sim is not self.sim:
            raise SimulationError("cannot wait on an event from another simulator")
        # add_callback, inlined: this runs once per process wake-up
        if target._processed:
            self.sim.call_later(0.0, self._resume, target)
        else:
            target.callbacks.append(self._resume)


class Condition(Event):
    """Waits on a set of events until an evaluation predicate holds."""

    __slots__ = ("events", "_count", "_needed")

    def __init__(self, sim: "Simulator", events: Iterable[Event], needed: int):
        super().__init__(sim)
        self.events = list(events)
        self._count = 0
        self._needed = min(needed, len(self.events)) if self.events else 0
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                # Nobody will look at this failure through the condition.
                event.defused = True
            return
        if not event._ok:
            event.defused = True
            self.fail(event._value)
            return
        self._count += 1
        if self._count >= self._needed:
            # Only events that have actually fired (been processed) count;
            # Timeouts carry their value from construction, so checking
            # ``triggered`` would leak future values.
            self.succeed([e._value for e in self.events if e._processed and e._ok])


class AllOf(Condition):
    """Triggers when every event has succeeded; fails fast on any failure."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        events = list(events)
        super().__init__(sim, events, needed=len(events))


class AnyOf(Condition):
    """Triggers when at least one event has succeeded."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim, events, needed=1)


class Simulator:
    """Owns the virtual clock, the event queue, and process scheduling."""

    def __init__(self):
        #: current simulated time in seconds — a plain attribute, read
        #: many times per op; only this class writes it (repro-lint RL002)
        self.now = 0.0
        #: ``(when, seq, event, None)`` or ``(when, seq, fn, args)``
        self._queue: list[tuple] = []
        self._seq = 0
        #: entries :meth:`cancel` took out of the queue before they ran
        self._withdrawn = 0
        #: processes ever started on this simulator
        self.processes_spawned = 0
        #: per-simulation contexts (``repro.obs.obs_for``,
        #: ``repro.sanitize.rsan_for``), freed with the simulator
        self.obs = None
        self.rsan = None
        self._sequences: dict[str, itertools.count] = {}

    @property
    def events_processed(self) -> int:
        """Queue entries :meth:`step` has run: what was pushed minus
        what is still queued and what :meth:`cancel` withdrew."""
        return self._seq - len(self._queue) - self._withdrawn

    def sequence(self, name: str, start: int = 1) -> itertools.count:
        """This simulation's counter *name*, from *start* at first use.

        Identifiers that ride in messages (RDMA handles: their pickled
        size is wire time) are numbered per simulation, never per
        process, so a run does not depend on what else was built beside it.
        """
        counter = self._sequences.get(name)
        if counter is None:
            counter = self._sequences[name] = itertools.count(start)
        return counter

    # -- event construction ------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start *generator* as a new process."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def gather(self, generators: Iterable[Generator]):
        """Run *generators* as concurrent processes (generator).

        Returns their results in declaration order once **every** one
        has settled, or raises the first failure in declaration order.
        Unlike :meth:`all_of` it never returns while a sibling is still
        running: a caller that rolls back on failure sees everything
        the round did.
        """
        def settle(generator):
            # a failure is an outcome, not a failed event nobody awaits yet
            try:
                return True, (yield from generator)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                return False, exc

        outcomes = yield self.all_of(
            [self.process(settle(generator)) for generator in generators]
        )
        for ok, value in outcomes:
            if not ok:
                raise value
        return [value for _ok, value in outcomes]

    def single_flight(self, pending: dict, key: Any,
                      start: Callable[[], Generator]):
        """Run ``start()`` once for concurrent callers of *key* (generator).

        The first caller runs it; later ones wait on its event and share
        its result or its exception.  *pending* holds the runs in flight
        and forgets each as it settles, so the call after a failure
        starts afresh.  Whatever cache makes later calls skip this
        belongs to ``start()``: it must be filled before a waiter wakes.
        """
        flight = pending.get(key)
        if flight is not None:
            return (yield flight)
        flight = pending[key] = self.event()
        flight.defused = True  # there may be no second caller to tell
        try:
            value = yield from start()
        except Exception as exc:
            flight.fail(exc)
            raise
        finally:
            del pending[key]
        flight.succeed(value)
        return value

    # -- scheduling --------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., None],
                   *args: Any) -> tuple:
        """Run ``fn(*args)`` after *delay* simulated seconds.

        The cheap timer: no :class:`Event`, so nothing can wait on it or
        read a value from it — use :meth:`timeout` when something must.
        It takes its turn among same-instant events in FIFO order like
        any other entry, and an exception *fn* raises surfaces from
        :meth:`run`.  Returns its queue entry, the handle
        :meth:`cancel` takes.
        """
        if not delay >= 0:  # NaN fails this too
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._seq += 1
        entry = (self.now + delay, self._seq, fn, args)
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, timer: Timeout | tuple) -> None:
        """Withdraw a pending *timer*: a :class:`Timeout`, or the handle
        :meth:`call_later` returned.

        It never runs and never advances :attr:`now`, and nothing may
        wait on a withdrawn timeout afterwards.  Every other entry keeps
        its ``(when, seq)`` key, so the order they run in is unchanged.
        A timer that has run, or was withdrawn already, is left alone.
        The scan is linear: what gets withdrawn is a watchdog whose
        guarded work settled, and the queue it leaves is small.
        """
        queue = self._queue
        is_event = isinstance(timer, Timeout)
        for i, entry in enumerate(queue):
            if (entry[2] if is_event else entry) is timer:
                break
        else:
            return
        last = queue.pop()
        if i < len(queue):
            queue[i] = last
            heapq.heapify(queue)
        self._withdrawn += 1
        if is_event:
            timer.callbacks = None  # what it would have woken can go now

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the next queue entry: an event or a bare call — the
        one function that does, so its profiled calls count entries."""
        when, _seq, target, args = heapq.heappop(self._queue)
        self.now = when
        if args is not None:
            target(*args)
            return
        event = target
        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if callbacks:
            for callback in callbacks:
                callback(event)
        if not event._ok and not event.defused:
            exc = event._value
            raise exc

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run until the queue drains, a deadline passes, or an event fires.

        ``until`` may be an absolute simulated time or an :class:`Event`
        (commonly a :class:`Process`); in the latter case the event's
        value is returned.
        """
        if isinstance(until, Event):
            stop = until
            while not stop._processed:
                if not self._queue:
                    raise SimulationError(
                        "event queue drained before the awaited event fired "
                        "(deadlock: a process is waiting on an event nobody "
                        "will trigger)"
                    )
                self.step()
            if stop._ok:
                return stop._value
            raise stop._value
        deadline = float("inf") if until is None else float(until)
        while self._queue and self._queue[0][0] <= deadline:
            self.step()
        if until is not None and self.now < deadline:
            self.now = deadline
        return None
