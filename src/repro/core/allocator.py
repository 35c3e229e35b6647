"""Master-side stripe placement.

The allocator decides which memory server hosts each stripe of a new
region: primaries walk the server ring, one stripe per server, which
maximises the number of NICs serving a sequential scan (the
aggregate-bandwidth story); replicas and repair replacements go to the
live server with the most free capacity.

Placing a stripe reserves it too: each server slot holds this shard's
:class:`~repro.core.arena.Arena` over its slice of the server's MR, and
that arena is the one record of the slice's free space.  No memory
server is asked — its CPU never sees an allocation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.arena import Arena
from repro.core.errors import OutOfMemoryError
from repro.core.region import StripeDesc, StripeReplica

__all__ = ["ServerSlot", "StripeAllocator"]


@dataclass
class ServerSlot:
    """The master's view of one memory server."""

    host_id: int
    capacity: int
    rkey: int = 0
    alive: bool = True
    last_heartbeat: float = 0.0
    #: cluster epoch at the server's last (re-)registration
    epoch: int = 0
    #: this shard's slice of the server's arena, carved only here;
    #: ``None`` between a master restart and the server's re-registration
    arena: Optional[Arena] = None

    @property
    def free(self) -> int:
        return 0 if self.arena is None else self.arena.free_bytes


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
    ) -> list[StripeDesc]:
        """Pick and reserve ``replication`` distinct hosts per stripe
        (primary first); returns the stripe descriptors.

        ``preferred_host`` is a locality hint: when that server is alive
        and can hold a full copy, every primary lands there (the paper's
        co-located allocations, e.g. a sorter's shuffle target on its
        own machine).  Replicas always avoid their primary's server.

        Raises :class:`OutOfMemoryError` (leaving every arena untouched)
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
        stripes: list[StripeDesc] = []
        taken: list[tuple[Arena, int]] = []

        def take(slot: ServerSlot, length: int) -> StripeReplica:
            addr = slot.arena.reserve(length)
            taken.append((slot.arena, addr))
            return StripeReplica(host_id=slot.host_id, addr=addr,
                                 rkey=slot.rkey)

        use_preferred = False
        if preferred_host is not None:
            slot = self._servers.get(preferred_host)
            total = sum(stripe_lengths)
            use_preferred = (
                slot is not None and slot.alive and slot.free >= total
            )
        try:
            for index, length in enumerate(stripe_lengths):
                if use_preferred:
                    slot = self._servers[preferred_host]
                    if slot.free < length:
                        raise OutOfMemoryError(
                            f"preferred server {preferred_host} ran out"
                        )
                else:
                    slot = self._choose_round_robin(length)
                    if slot is None:
                        raise OutOfMemoryError(
                            f"no server can hold a {length}-byte stripe"
                        )
                copies = [take(slot, length)]
                # replicas: most-free live servers not already holding one
                while len(copies) < replication:
                    holders = {r.host_id for r in copies}
                    candidates = [
                        s for s in self.alive_servers
                        if s.host_id not in holders and s.free >= length
                    ]
                    if not candidates:
                        raise OutOfMemoryError(
                            f"cannot place replica {len(copies)} of a "
                            f"{length}-byte stripe"
                        )
                    best = max(candidates, key=lambda s: (s.free, -s.host_id))
                    copies.append(take(best, length))
                stripes.append(StripeDesc(index=index, length=length,
                                          replicas=tuple(copies)))
        except OutOfMemoryError:
            for arena, addr in taken:
                arena.release(addr)
            raise
        return stripes

    def place_replacement(
        self, length: int, exclude_hosts: Iterable[int]
    ) -> Optional[StripeReplica]:
        """Pick and reserve a replacement replica (repair).

        Deterministic most-free choice (lowest host id breaks ties) among
        live servers not already holding a copy; returns the reserved
        replica, or ``None`` when nothing fits.
        """
        exclude = set(exclude_hosts)
        candidates = sorted(
            (s for s in self.alive_servers
             if s.host_id not in exclude and s.free >= length),
            key=lambda s: (-s.free, s.host_id),
        )
        for slot in candidates:
            try:
                addr = slot.arena.reserve(length)
            except OutOfMemoryError:
                continue  # free bytes enough, no extent long enough
            return StripeReplica(host_id=slot.host_id, addr=addr,
                                 rkey=slot.rkey)
        return None

    def _choose_round_robin(self, length: int):
        alive = self.alive_servers
        for attempt in range(len(alive)):
            slot = alive[(self._ring_pos + attempt) % len(alive)]
            if slot.free >= length:
                self._ring_pos = (self._ring_pos + attempt + 1) % len(alive)
                return slot
        return None
