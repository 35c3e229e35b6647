"""Completion queues.

Completions arrive as :class:`WorkCompletion` entries.  A process
waits for the next one (``next_completion``), like an app blocked on a
completion channel, or every completion goes to one callable
(``consume``), like a completion-channel handler.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.rdma.types import Opcode, WcStatus
from repro.simnet.kernel import Event, Simulator

__all__ = ["WorkCompletion", "CompletionQueue"]


@dataclass(slots=True)
class WorkCompletion:
    """One completed work request."""

    wr_id: Any
    status: WcStatus
    opcode: Opcode
    byte_len: int = 0
    qp: Optional[object] = None
    #: atomics: the prior value at the remote address
    atomic_result: Optional[int] = None
    #: error detail for non-SUCCESS completions
    detail: str = ""
    #: when the NIC raised it, stamped only under an enabled tracer (the
    #: client pipeline's ``data.cq.complete`` span starts here)
    _obs_raised: Optional[float] = field(default=None, init=False,
                                         repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return self.status is WcStatus.SUCCESS


class CompletionQueue:
    """FIFO of work completions with event-driven waiting."""

    def __init__(self, sim: Simulator, depth: int = 4096):
        self.sim = sim
        self.depth = depth
        self._entries: deque[WorkCompletion] = deque()
        self._waiters: deque[Event] = deque()
        #: total completions ever pushed (for metrics/tests)
        self.total_completions = 0
        self.overflowed = False
        #: completions dropped by CQ overrun
        self.dropped = 0
        #: the one callable every completion is handed to (:meth:`consume`)
        self._consumer: Optional[Callable[[WorkCompletion], None]] = None
        #: the consumer has no delivery scheduled and is not running one
        self._consumer_idle = False

    def push(self, wc: WorkCompletion) -> None:
        """Deliver a completion (called by the NIC at completion time)."""
        self.total_completions += 1
        if self._consumer_idle:
            self._consumer_idle = False
            self.sim.call_later(0.0, self._deliver, wc)
            return
        if self._waiters:
            self._waiters.popleft().succeed(wc)
            return
        if len(self._entries) >= self.depth:
            # CQ overrun.  Real RNICs raise a fatal async event and the
            # QP goes to error; mirroring that keeps ``depth`` honest
            # instead of letting deep batches grow the queue unbounded.
            self.overflowed = True
            self.dropped += 1
            if wc.qp is not None:
                wc.qp.set_error(f"CQ overrun (depth {self.depth})")
            return
        self._entries.append(wc)

    def next_completion(self) -> Event:
        """An event that fires with the next completion."""
        event = Event(self.sim)
        if self._entries:
            event.succeed(self._entries.popleft())
        else:
            self._waiters.append(event)
        return event

    def consume(self, fn: Callable[[WorkCompletion], None]) -> None:
        """Hand every completion from now on to ``fn(wc)``: a bare call,
        no process, in the queue position where a process looping on
        :meth:`next_completion` would resume.  As for that process, one
        delivery is pending at a time, the rest queue here (and overrun
        at ``depth``), and the next is scheduled as the last returns."""
        self._consumer = fn
        self._schedule_delivery()

    def _deliver(self, wc: WorkCompletion) -> None:
        self._consumer(wc)
        self._schedule_delivery()

    def _schedule_delivery(self) -> None:
        if self._entries:
            self.sim.call_later(0.0, self._deliver, self._entries.popleft())
        else:
            self._consumer_idle = True
