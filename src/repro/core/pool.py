"""Client-side registered staging pool.

The convenience byte-oriented API (``read`` returning ``bytes``,
``write`` taking ``bytes``) needs registered local memory to DMA
through.  The pool registers one MR at client startup and hands out
chunks; callers that outgrow it should switch to the zero-copy API
(``read_into`` / ``write_from``) with their own registered buffers.
"""

from __future__ import annotations

from collections import deque

from repro.core.arena import Arena
from repro.core.errors import OutOfMemoryError, RStoreError
from repro.rdma.memory import MemoryRegion
from repro.simnet.kernel import Simulator

__all__ = ["LocalBufferPool", "PoolChunk"]


class PoolChunk:
    """A borrowed slice of the staging MR."""

    __slots__ = ("mr", "addr", "length", "_pool")

    def __init__(self, mr: MemoryRegion, addr: int, length: int, pool):
        self.mr = mr
        self.addr = addr
        self.length = length
        self._pool = pool

    @property
    def offset(self) -> int:
        return self.mr.offset_of(self.addr)

    def read_bytes(self, length: int) -> bytes:
        return self.mr.buffer.read(self.offset, length)

    def write_bytes(self, payload: bytes) -> None:
        if len(payload) > self.length:
            raise RStoreError("payload exceeds chunk")
        self.mr.buffer.write(self.offset, payload)

    def release(self) -> None:
        self._pool.free(self)


class LocalBufferPool:
    """Blocking allocator over one registered staging MR."""

    def __init__(self, sim: Simulator, mr: MemoryRegion):
        self.sim = sim
        self.mr = mr
        self._arena = Arena(mr.addr, mr.length)
        self._waiters: deque[tuple[int, object]] = deque()

    @property
    def capacity(self) -> int:
        return self.mr.length

    def alloc(self, length: int):
        """Borrow a chunk (generator); blocks until space frees up."""
        if length > self.capacity:
            raise OutOfMemoryError(
                f"request of {length} bytes exceeds the staging pool "
                f"({self.capacity} bytes); use the zero-copy API with "
                "your own registered buffer"
            )
        while True:
            # not a network retry: parks on an event until a chunk is
            # released, like a condition variable
            try:  # repro-lint: allow[RL005]
                addr = self._arena.reserve(length)
            except OutOfMemoryError:
                event = self.sim.event()
                self._waiters.append((length, event))
                yield event
                continue
            return PoolChunk(self.mr, addr, length, self)

    def free(self, chunk: PoolChunk) -> None:
        self._arena.release(chunk.addr)
        # Wake every parked waiter; each retries its reservation (simple
        # and starvation-free enough for a staging pool).
        while self._waiters:
            _length, event = self._waiters.popleft()
            if not event.triggered:
                event.succeed()
