"""First-fit arena allocator.

A memory server registers its whole DRAM donation as one MR at startup
(the separation philosophy: pay registration once, never per
allocation).  Each metadata shard's master carves stripe reservations
out of its slice of that MR with this first-fit free-list allocator,
coalescing on release — the server's CPU never sees an allocation.
Clients use the same allocator for their registered staging pool.
"""

from __future__ import annotations

import bisect

from repro.core.errors import OutOfMemoryError, RStoreError

__all__ = ["Arena"]


class Arena:
    """First-fit allocator over ``[base, base+capacity)``.

    Reservation lengths are rounded up to :attr:`ALIGNMENT` so every
    reservation starts aligned (RDMA atomics need 8-byte alignment;
    64 also keeps stripes cacheline-aligned).  ``base`` itself must be
    aligned — MR addresses are page-aligned, so it is.
    """

    ALIGNMENT = 64

    def __init__(self, base: int, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if base % self.ALIGNMENT:
            raise ValueError(
                f"base {base:#x} not {self.ALIGNMENT}-byte aligned")
        self.base = base
        self.capacity = capacity
        #: sorted list of (offset, length) free extents
        self._free: list[tuple[int, int]] = [(0, capacity)]
        self._live: dict[int, int] = {}  # offset -> length
        #: a running total: placement reads it for every candidate server
        self.free_bytes = capacity

    @classmethod
    def holding(cls, base: int, capacity: int, live) -> "Arena":
        """An arena whose reservations are exactly *live*.

        *live* holds the ``(addr, length)`` of every reservation, in any
        order — a rebuild from metadata after a master restart.  The
        free list comes out as it would have after the same reserves
        and releases: the coalesced gaps between reservations.
        """
        arena = cls(base, capacity)
        arena._free = []
        cursor = 0
        for addr, length in sorted(live):
            off = addr - base
            if off > cursor:
                arena._free.append((cursor, off - cursor))
            arena._live[off] = arena._aligned(length)
            cursor = off + arena._live[off]
        if cursor < capacity:
            arena._free.append((cursor, capacity - cursor))
        arena.free_bytes = sum(length for _off, length in arena._free)
        return arena

    def reserve(self, length: int) -> int:
        """Carve out *length* bytes; returns the absolute address."""
        if length <= 0:
            raise ValueError(f"reservation must be positive, got {length}")
        length = self._aligned(length)
        for i, (off, extent) in enumerate(self._free):
            if extent >= length:
                if extent == length:
                    del self._free[i]
                else:
                    self._free[i] = (off + length, extent - length)
                self._live[off] = length
                self.free_bytes -= length
                return self.base + off
        raise OutOfMemoryError(
            f"arena has {self.free_bytes} free bytes but none of its "
            f"{len(self._free)} extents fits {length}"
        )

    def _aligned(self, length: int) -> int:
        return -(-length // self.ALIGNMENT) * self.ALIGNMENT

    def release(self, addr: int) -> int:
        """Free a reservation by address; returns its length."""
        off = addr - self.base
        length = self._live.pop(off, None)
        if length is None:
            raise RStoreError(f"release of unknown reservation at {addr:#x}")
        self._insert_free(off, length)
        self.free_bytes += length
        return length

    def _insert_free(self, off: int, length: int) -> None:
        # Insert keeping order, then coalesce with neighbours.  No free
        # extent starts at *off* (it was live), so the tuple order is
        # the offset order.
        lo = bisect.bisect_left(self._free, (off, length))
        self._free.insert(lo, (off, length))
        # merge with successor first, then predecessor
        if lo + 1 < len(self._free):
            noff, nlen = self._free[lo + 1]
            if off + length == noff:
                self._free[lo] = (off, length + nlen)
                del self._free[lo + 1]
        if lo > 0:
            poff, plen = self._free[lo - 1]
            coff, clen = self._free[lo]
            if poff + plen == coff:
                self._free[lo - 1] = (poff, plen + clen)
                del self._free[lo]
