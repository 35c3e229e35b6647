"""Region descriptors and address translation.

A *region* is a named, byte-addressable slab of distributed DRAM.  It
is cut into fixed-size *stripes*, each resident on one memory server.
Address translation (region offset → stripe, stripe offset) is pure
arithmetic on the descriptor — exactly what lets RStore keep metadata
off the data path: once a client holds the descriptor, no lookup ever
happens again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.errors import BoundsError

__all__ = ["StripeReplica", "StripeDesc", "RegionDesc", "split_into_stripes"]


@dataclass(frozen=True)
class StripeReplica:
    """One physical copy of a stripe on one memory server."""

    host_id: int
    #: virtual address of the copy inside the server's arena
    addr: int
    #: rkey of the server's pre-registered arena MR
    rkey: int


@dataclass(frozen=True)
class StripeDesc:
    """One stripe: a contiguous chunk, possibly replicated.

    ``replicas[0]`` is the primary — reads go there; writes fan out to
    every replica.  The single-copy accessors (``host_id`` / ``addr`` /
    ``rkey``) refer to the primary, which keeps unreplicated code
    paths oblivious to replication.
    """

    index: int
    length: int
    replicas: tuple[StripeReplica, ...]

    def __post_init__(self):
        if not self.replicas:
            raise ValueError("a stripe needs at least one replica")
        hosts = [r.host_id for r in self.replicas]
        if len(set(hosts)) != len(hosts):
            raise ValueError("stripe replicas must live on distinct servers")

    @property
    def primary(self) -> StripeReplica:
        return self.replicas[0]

    @property
    def host_id(self) -> int:
        return self.primary.host_id

    @property
    def addr(self) -> int:
        return self.primary.addr

    @property
    def rkey(self) -> int:
        return self.primary.rkey

    @property
    def replication(self) -> int:
        return len(self.replicas)

    def without_host(self, host_id: int) -> "StripeDesc":
        """A descriptor with *host_id*'s replica dropped (promotion)."""
        remaining = tuple(r for r in self.replicas if r.host_id != host_id)
        return StripeDesc(index=self.index, length=self.length,
                          replicas=remaining)

    def with_replica(self, replica: StripeReplica) -> "StripeDesc":
        """A descriptor with *replica* appended (repair re-protection).

        The new copy never becomes the primary: reads keep hitting the
        replica that held the data all along.
        """
        return StripeDesc(index=self.index, length=self.length,
                          replicas=self.replicas + (replica,))


@dataclass
class RegionDesc:
    """The full metadata a client needs to access a region."""

    region_id: int
    name: str
    size: int
    stripe_size: int
    stripes: list[StripeDesc] = field(default_factory=list)
    #: cleared when a hosting server dies
    available: bool = True
    unavailable_reason: str = ""

    #: bumped whenever the master rewrites the descriptor (promotion,
    #: repair) — clients compare it to spot stale mappings
    version: int = 1
    #: the replication factor requested at allocation time; the repair
    #: planner drives every stripe back to this many copies
    target_replication: int = 1
    #: cluster epoch the descriptor was last written at — stamped onto
    #: one-sided ops so servers that re-registered at a newer epoch can
    #: fence stale accessors (see DESIGN.md "Crash recovery & fencing")
    epoch: int = 0

    @property
    def hosts(self) -> tuple[int, ...]:
        """Distinct memory servers hosting this region (primaries first,
        then replica-only hosts), in stripe order."""
        seen: dict[int, None] = {}
        for stripe in self.stripes:
            seen.setdefault(stripe.host_id, None)
        for stripe in self.stripes:
            for replica in stripe.replicas[1:]:
                seen.setdefault(replica.host_id, None)
        return tuple(seen)

    @property
    def replication(self) -> int:
        return min(s.replication for s in self.stripes) if self.stripes else 1

    def locate(self, offset: int, length: int) -> Iterator[tuple[StripeDesc, int, int]]:
        """Translate ``[offset, offset+length)`` to stripe-local pieces.

        Yields ``(stripe, offset_within_stripe, piece_length)`` tuples
        covering the range in order.
        """
        if offset < 0 or length < 0 or offset + length > self.size:
            raise BoundsError(
                f"access [{offset}, +{length}) outside region "
                f"{self.name!r} of {self.size} bytes"
            )
        pos = offset
        remaining = length
        while remaining > 0:
            index, stripe_off = divmod(pos, self.stripe_size)
            stripe = self.stripes[index]
            take = min(stripe.length - stripe_off, remaining)
            yield stripe, stripe_off, take
            pos += take
            remaining -= take

    def validate(self) -> None:
        """Check descriptor invariants (used by tests and the master)."""
        assert sum(s.length for s in self.stripes) == self.size
        for i, stripe in enumerate(self.stripes):
            assert stripe.index == i
            if i < len(self.stripes) - 1:
                assert stripe.length == self.stripe_size
            else:
                assert 0 < stripe.length <= self.stripe_size


def split_into_stripes(size: int, stripe_size: int) -> list[int]:
    """Stripe lengths for a region of *size* bytes (last may be short)."""
    if size <= 0:
        raise ValueError(f"region size must be positive, got {size}")
    full, tail = divmod(size, stripe_size)
    lengths = [stripe_size] * full
    if tail:
        lengths.append(tail)
    return lengths
