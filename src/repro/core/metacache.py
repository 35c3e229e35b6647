"""The client's metadata cache: epoch views and leased descriptors.

``map`` by name consults this cache — leased, epoch-stamped region
descriptors with single-flight miss coalescing and short negative
entries — so a region's shard is contacted at most once per epoch per
region.  The cache also owns the client's view of each shard's epoch:
an epoch bump (observed in any reply, or learned after a fence through
:meth:`MetadataCache.resync`) drops that shard's leases and forces
exactly one refresh.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple, Optional

from repro.core.errors import RegionNotFoundError

__all__ = ["MetadataCache"]


class _MetaEntry(NamedTuple):
    """One cached region descriptor lease (or negative entry).

    ``epoch`` is the client's *observed epoch of the owning shard* at
    fetch time — not ``desc.epoch``, which records when the region was
    created and is usually older.  An entry is served while the lease
    has not expired and the shard's observed epoch has not moved; an
    epoch bump evicts every lease fetched under the older era, which is
    exactly the "at most one master RPC per epoch per region" contract.
    """

    desc: object
    shard: int
    epoch: int
    expires: float
    #: a cached miss: ``map`` re-raises this until the negative TTL
    #: lapses (freshly created regions become visible on re-ask)
    error: Optional[Exception] = None


class MetadataCache:
    """Per-shard epochs plus the descriptor leases stamped with them."""

    def __init__(self, client):
        self._client = client
        self._sim = client.sim
        self._config = client.config
        #: highest epoch observed per shard (descriptor or stats reply);
        #: stamped onto mutating control RPCs for fencing, and the
        #: invalidation signal for the leases below
        self.epochs: dict[int, int] = {}
        #: region name -> :class:`_MetaEntry` descriptor lease
        self._leases: dict[str, _MetaEntry] = {}
        #: name -> the one lookup in flight (``Simulator.single_flight``:
        #: concurrent misses coalesce onto one master RPC)
        self._inflight: dict = {}
        _m = client.obs.metrics
        _host = client.nic.host.host_id
        self.hits = _m.counter("client.metadata_cache_hits", host=_host)
        self.misses = _m.counter("client.metadata_cache_misses", host=_host)
        self.coalesced = _m.counter("client.metadata_cache_coalesced",
                                    host=_host)
        self.fenced = _m.counter("client.retries_fenced", host=_host)

    def note_epoch(self, epoch, shard: int = 0) -> None:
        """Track *shard*'s epoch; a bump drops that shard's leases."""
        if epoch is None or epoch <= self.epochs.get(shard, 0):
            return
        self.epochs[shard] = epoch
        stale = [name for name, entry in self._leases.items()
                 if entry.shard == shard and entry.epoch < epoch]
        for name in stale:
            del self._leases[name]

    def resync(self, shard: int):
        """Recover from a stale-epoch fence (generator): count it, ask
        *shard* for its current epoch, and drop the leases of older
        eras.  The caller then re-issues what was fenced."""
        self.fenced.inc()
        stats = yield from self._client._master_call("cluster_stats",
                                                     shard=shard)
        self.note_epoch(stats["epoch"], shard)

    def store(self, name: str, shard: int, desc) -> None:
        """Lease a fresh descriptor under the current observed epoch."""
        self.note_epoch(desc.epoch, shard)
        if not desc.available:
            # never lease unavailability: callers polling for the
            # region to heal must observe the restored descriptor on
            # their next ask, not a cached refusal
            self.evict(name)
            return
        self._leases[name] = _MetaEntry(
            desc, shard, self.epochs.get(shard, 0),
            self._sim.now + self._config.meta_lease_s)

    def store_negative(self, name: str, shard: int,
                       as_of: Optional[int] = None) -> None:
        """Cache a miss.  *as_of* is the shard epoch observed when the
        lookup was *issued*, not when it completed: a lookup in flight
        across an epoch bump must be stamped with the old era so the
        bump (already observed by the time the refusal lands) evicts
        it like any other stale lease — otherwise a region created
        under the new era hides behind a cached refusal for the whole
        negative TTL."""
        ttl = self._config.meta_negative_ttl_s
        if ttl <= 0:
            return
        epoch = self.epochs.get(shard, 0) if as_of is None else as_of
        self._leases[name] = _MetaEntry(
            None, shard, epoch, self._sim.now + ttl,
            RegionNotFoundError(f"no region named {name!r}"))

    def evict(self, name: str) -> None:
        self._leases.pop(name, None)

    def resolve(self, name: str):
        """Descriptor for *name* (generator): cache, else one lookup.

        Single-flight: concurrent misses for the same name park on the
        first caller's lookup and share its outcome — 32 clients racing
        a cold name cost the shard exactly one RPC.
        """
        entry = self._leases.get(name)
        if entry is not None and entry.epoch < self.epochs.get(
                entry.shard, 0):
            # stamped under an older era than we have since observed —
            # possible when the entry was stored by a lookup that was
            # already in flight when the bump arrived; serve-time check
            # keeps such a lease from outliving the era it belongs to
            self.evict(name)
            entry = None
        if entry is not None and self._sim.now < entry.expires:
            self.hits.inc()
            if entry.error is not None:
                raise entry.error
            return entry.desc
        (self.coalesced if name in self._inflight else self.misses).inc()
        return (yield from self._sim.single_flight(
            self._inflight, name, partial(self._client.lookup, name)))
