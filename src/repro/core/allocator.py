"""Master-side stripe placement.

The allocator decides which memory server hosts each stripe of a new
region: primaries walk the server ring, one stripe per server, which
maximises the number of NICs serving a sequential scan (the
aggregate-bandwidth story); replicas and repair replacements go to the
live server with the most free capacity.

The allocator tracks free capacity conservatively; the server's arena
allocator is the ground truth at reservation time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.core.errors import OutOfMemoryError

__all__ = ["ServerSlot", "StripeAllocator"]


@dataclass
class ServerSlot:
    """The master's view of one memory server."""

    host_id: int
    capacity: int
    free: int
    rkey: int = 0
    alive: bool = True
    last_heartbeat: float = 0.0
    #: cluster epoch at the server's last (re-)registration
    epoch: int = 0


class StripeAllocator:
    """Chooses a memory server for every stripe of a region."""

    def __init__(self):
        self._servers: dict[int, ServerSlot] = {}
        self._ring_pos = 0

    # -- membership -----------------------------------------------------------

    def add_server(self, slot: ServerSlot) -> None:
        self._servers[slot.host_id] = slot

    def server(self, host_id: int) -> ServerSlot:
        return self._servers[host_id]

    def get_server(self, host_id: int) -> Optional[ServerSlot]:
        return self._servers.get(host_id)

    def host_alive(self, host_id: int) -> bool:
        slot = self._servers.get(host_id)
        return slot is not None and slot.alive

    @property
    def servers(self) -> list[ServerSlot]:
        return [self._servers[h] for h in sorted(self._servers)]

    @property
    def alive_servers(self) -> list[ServerSlot]:
        return [s for s in self.servers if s.alive]

    @property
    def total_free(self) -> int:
        return sum(s.free for s in self.alive_servers)

    # -- placement --------------------------------------------------------------

    def place(
        self,
        stripe_lengths: list[int],
        preferred_host: Optional[int] = None,
        replication: int = 1,
    ) -> list[tuple[int, ...]]:
        """Pick ``replication`` distinct hosts per stripe (primary
        first); decrements tracked capacity for every copy.

        ``preferred_host`` is a locality hint: when that server is alive
        and can hold a full copy, every primary lands there (the paper's
        co-located allocations, e.g. a sorter's shuffle target on its
        own machine).  Replicas always avoid their primary's server.

        Raises :class:`OutOfMemoryError` (leaving capacities untouched)
        when the stripes cannot all be placed.
        """
        if replication < 1:
            raise OutOfMemoryError(f"invalid replication factor {replication}")
        alive = self.alive_servers
        if not alive:
            raise OutOfMemoryError("no live memory servers")
        if replication > len(alive):
            raise OutOfMemoryError(
                f"replication {replication} exceeds {len(alive)} live servers"
            )
        if sum(stripe_lengths) * replication > self.total_free:
            raise OutOfMemoryError(
                f"need {sum(stripe_lengths) * replication} bytes, cluster "
                f"has {self.total_free} free"
            )
        placement: list[tuple[int, ...]] = []
        charged: list[tuple[ServerSlot, int]] = []

        def charge(slot: ServerSlot, length: int) -> None:
            slot.free -= length
            charged.append((slot, length))

        use_preferred = False
        if preferred_host is not None:
            slot = self._servers.get(preferred_host)
            total = sum(stripe_lengths)
            use_preferred = (
                slot is not None and slot.alive and slot.free >= total
            )
        try:
            for length in stripe_lengths:
                copies: list[int] = []
                if use_preferred:
                    slot = self._servers[preferred_host]
                    if slot.free < length:
                        raise OutOfMemoryError(
                            f"preferred server {preferred_host} ran out"
                        )
                    charge(slot, length)
                    copies.append(preferred_host)
                else:
                    slot = self._choose_round_robin(length)
                    if slot is None:
                        raise OutOfMemoryError(
                            f"no server can hold a {length}-byte stripe"
                        )
                    charge(slot, length)
                    copies.append(slot.host_id)
                # replicas: most-free live servers not already holding one
                while len(copies) < replication:
                    candidates = [
                        s for s in self.alive_servers
                        if s.host_id not in copies and s.free >= length
                    ]
                    if not candidates:
                        raise OutOfMemoryError(
                            f"cannot place replica {len(copies)} of a "
                            f"{length}-byte stripe"
                        )
                    best = max(candidates, key=lambda s: (s.free, -s.host_id))
                    charge(best, length)
                    copies.append(best.host_id)
                placement.append(tuple(copies))
        except OutOfMemoryError:
            for slot, length in charged:
                slot.free += length
            raise
        return placement

    def place_replacement(
        self, length: int, exclude_hosts: Iterable[int]
    ) -> Optional[ServerSlot]:
        """Pick a live server for a replacement replica (repair).

        Deterministic most-free choice (lowest host id breaks ties) among
        live servers not already holding a copy; charges the tracked
        capacity and returns the slot, or ``None`` when nothing fits.
        """
        exclude = set(exclude_hosts)
        candidates = [
            s for s in self.alive_servers
            if s.host_id not in exclude and s.free >= length
        ]
        if not candidates:
            return None
        best = max(candidates, key=lambda s: (s.free, -s.host_id))
        best.free -= length
        return best

    def release(self, host_id: int, nbytes: int) -> None:
        """Return capacity after a region is freed."""
        slot = self._servers.get(host_id)
        if slot is not None:
            slot.free = min(slot.capacity, slot.free + nbytes)

    def _choose_round_robin(self, length: int):
        alive = self.alive_servers
        for attempt in range(len(alive)):
            slot = alive[(self._ring_pos + attempt) % len(alive)]
            if slot.free >= length:
                self._ring_pos = (self._ring_pos + attempt + 1) % len(alive)
                return slot
        return None
