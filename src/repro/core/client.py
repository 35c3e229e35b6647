"""The RStore client library: the memory-like API.

Control path (expensive, infrequent)::

    region = yield from client.alloc("ranks", 64 * MiB)   # master RPC
    mapping = yield from client.map(region)               # connect + cache

Control RPCs route through the :class:`~repro.core.shard.ShardRouter`:
region names hash onto metadata shards, and each call dials only the
shard owning its name.  ``map`` by name additionally consults the
client's :class:`~repro.core.metacache.MetadataCache`, so a region's
shard is contacted at most once per epoch per region.

``map`` resolves everything an IO will ever need — per-stripe server,
remote address, rkey, and a connected QP per server (QPs are cached
client-wide, so mapping a second region to the same servers is nearly
free) — and returns the data-path handle, a
:class:`~repro.core.mapping.Mapping`.  From there every op is one-sided
RDMA driven by the client's :class:`~repro.core.pipeline.OpPipeline`:
RDMA's separation philosophy extended to the cluster.
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

from repro.core.config import RStoreConfig
from repro.core.errors import (
    DeadlineExceededError,
    MasterUnavailableError,
    RegionNotFoundError,
    RegionUnavailableError,
    RStoreError,
    StaleEpochError,
    translated,
)
from repro.core.mapping import mapping_class
from repro.core.metacache import MetadataCache
from repro.core.pipeline import DATA_SQ_DEPTH, IoBatch, OpPipeline
from repro.core.pool import LocalBufferPool
from repro.core.region import RegionDesc
from repro.core.shard import ShardRouter
from repro.obs import obs_for
from repro.rdma.cm import ConnectionManager
from repro.rdma.nic import RNic
from repro.rdma.qp import QueuePair
from repro.rdma.types import QpState, RdmaError
from repro.rpc.channel import ChannelClosed
from repro.rpc.endpoint import RpcClientPool, RpcError, RpcRemoteError, RpcTimeout
from repro.sanitize import rsan_for
from repro.simnet.config import MiB
from repro.simnet.kernel import Simulator
from repro.simnet.rand import derive_rng

__all__ = ["RStoreClient"]

#: size of the client's registered staging pool for the convenience
#: byte-oriented read/write API
STAGING_POOL_BYTES = 16 * MiB

#: control methods that legitimately park at the master (coordination
#: rendezvous) — they get crash-tolerant redial but no deadline
_BLOCKING_CONTROL = frozenset({"barrier", "wait_note"})

#: control methods whose first argument is a name the shard map routes;
#: everything else (stats, membership) defaults to shard 0 so existing
#: single-master callers keep working unchanged
_NAME_ROUTED = frozenset({
    "alloc", "lookup", "free",
    "barrier", "notify", "wait_note",
})


class RStoreClient:
    """One application's connection to the store."""

    def __init__(
        self,
        sim: Simulator,
        nic: RNic,
        cm: ConnectionManager,
        config: Optional[RStoreConfig] = None,
    ):
        self.sim = sim
        self.nic = nic
        self.cm = cm
        self.config = config or RStoreConfig()
        self._pd = None
        self._staging: Optional[LocalBufferPool] = None
        #: the only path to a master: one cached channel per shard
        self._router = ShardRouter(sim, nic, cm, self.config)
        #: server host -> connected data QP; the one QP table, shared
        #: by every mapping of this client
        self._data_qps: dict[int, QueuePair] = {}
        #: server host -> the one QP dial in flight (``single_flight``)
        self._qp_dials: dict = {}
        self._mem_rpc = RpcClientPool(sim, nic, cm)
        #: lazily built DataPathRouter (see the ``datapath`` property)
        self._datapath = None
        #: bumped on every lazy one-time setup (QP dial, memory-service
        #: channel dial, fetch-buffer allocation) so the adaptive
        #: selector can discard latency samples that paid setup costs
        self.setup_events = 0
        #: region name -> ``(region id, {key: (slot index, version)})``:
        #: where this client last saw each key of each hash table it
        #: opened (``kv.hashkv``), one table shared by all its handles;
        #: a re-created region (a new id) starts cold
        self.location_hints: dict[str, tuple[int, dict]] = {}
        #: lock tokens minted on this client (``coord.seqlock.mint_token``,
        #: its only writer): one sequence under every protocol that names
        #: a holder, so no two tokens of one host ever coincide
        self.token_seq = 0
        #: deterministic jitter stream for retry backoff (data-path
        #: replays and control redials)
        self._retry_rng = derive_rng(
            self.config.seed, f"rstore-client-{nic.host.host_id}-retry"
        )
        #: sanitizer context (no-op unless ``config.sanitize``); one
        #: actor per client host
        self.rsan = rsan_for(sim)
        self._rsan_actor = nic.host.host_id
        self.obs = obs_for(sim)
        _m = self.obs.metrics
        _host = nic.host.host_id
        self._m_master_calls = _m.counter("client.master_calls", host=_host)
        self._m_master_redials = _m.counter("client.master_redials",
                                            host=_host)
        self._m_deadlines_missed = _m.counter("client.deadlines_missed",
                                              host=_host)
        #: per-shard epochs and leased descriptors
        self._meta = MetadataCache(self)
        #: submission windows, completion dispatch, retry worker
        self._io = OpPipeline(self)

    # -- metrics (registry-backed; see repro.obs) -----------------------------

    @property
    def master_calls(self) -> int:
        """Control-path RPCs issued to the master (alloc, lookup,
        barrier, ...) — the separation thesis says steady-state data
        paths keep this flat; tests assert on it."""
        return self._m_master_calls.value

    @property
    def retries_fenced(self) -> int:
        """Retry rounds triggered by an epoch fence (stale metadata)."""
        return self._meta.fenced.value

    @property
    def master_redials(self) -> int:
        """Times the control channel died and was re-established."""
        return self._m_master_redials.value

    @property
    def metadata_cache_hits(self) -> int:
        """``map``-by-name calls served from the descriptor cache."""
        return self._meta.hits.value

    @property
    def metadata_cache_misses(self) -> int:
        """``map``-by-name calls that had to ask the owning shard."""
        return self._meta.misses.value

    def start(self):
        """Connect to the cluster (generator)."""
        self._pd = yield from self.nic.alloc_pd()
        self._io.cq = yield from self.nic.create_cq(depth=1 << 16)
        staging_mr = yield from self.nic.reg_mr(
            self._pd, length=STAGING_POOL_BYTES
        )
        self._staging = LocalBufferPool(self.sim, staging_mr)
        yield from self._router.connect_all()
        self._io.start()
        return self

    def batch(self) -> IoBatch:
        """A fresh :class:`IoBatch` bound to this client."""
        return IoBatch(self)

    @property
    def datapath(self):
        """The server-op / remote-fetch router (lazily built).

        Deferred import: ``repro.datapath.router`` imports this module,
        so binding it at first use keeps the import graph acyclic and
        the one-sided-only fast path free of the dependency.
        """
        if self._datapath is None:
            from repro.datapath.router import DataPathRouter

            self._datapath = DataPathRouter(self)
        return self._datapath

    def _mem_channel(self, host_id: int):
        """A connected RPC channel to *host_id*'s memory service
        (generator); cached per host, shared by the two-sided ablation
        and the server-op data path."""
        rpc = self._mem_rpc.clients.get(host_id)
        if rpc is None:
            rpc = yield from self._mem_rpc.get(host_id, host_id,
                                               self.config.mem_service)
            self.setup_events += 1
        return rpc

    def _mem_channel_drop(self, host_id: int) -> None:
        """Forget a dead memory-service channel so the next use redials."""
        self._mem_rpc.clients.pop(host_id, None)

    # -- control path ----------------------------------------------------------

    def _master_call(self, method: str, *args, shard: Optional[int] = None):
        """One control RPC — routed, deadline-bounded, crash-tolerant.

        The owning shard is derived from the method's name argument
        (``_NAME_ROUTED``) unless *shard* pins it explicitly; methods
        without a name (stats, membership) default to shard 0.
        Ordinary control calls get ``control_deadline_s`` of total
        budget: each attempt's RPC timeout is the time left, a dead
        channel triggers a redial of the (possibly restarted) shard,
        and when the budget drains a typed error surfaces instead of
        an unbounded hang — a partitioned client fails fast.
        Coordination rendezvous (barrier/wait_note) park at
        the master by design, so they skip the deadline but keep the
        bounded redial.
        """
        if shard is None:
            shard = (self._router.shard_of(args[0])
                     if method in _NAME_ROUTED and args else 0)
        self._m_master_calls.inc()
        rsan = self.rsan
        if rsan.enabled:
            # every control RPC serializes through its single-threaded
            # shard: model it as one coarse release/acquire key per
            # shard.  This over-synchronizes (false negatives only) but
            # keeps the control path free of false positives.
            rsan.sync_release(self._rsan_actor, ("master", shard))
        span = self.obs.tracer.span(f"control.master.{method}",
                                    kind="control",
                                    host=self.nic.host.host_id)
        deadline = (None if method in _BLOCKING_CONTROL
                    else self.sim.now + self.config.control_deadline_s)
        try:
            result = yield from self._call_with_redial(method, args,
                                                       deadline, shard)
        except Exception:
            span.finish(ok=False)
            raise
        span.finish()
        if rsan.enabled:
            rsan.sync_acquire(self._rsan_actor, ("master", shard))
        return result

    def _call_with_redial(self, method: str, args, deadline, shard: int):
        """The attempt loop behind :meth:`_master_call` (generator)."""
        while True:
            timeout = None
            if deadline is not None:
                timeout = deadline - self.sim.now
                if timeout <= 0:
                    self._m_deadlines_missed.inc()
                    raise DeadlineExceededError(
                        f"control call {method!r} missed its "
                        f"{self.config.control_deadline_s}s deadline"
                    )
            try:
                master = yield from self._router.client_for(shard)
                result = yield from master.call(method, *args,
                                                timeout=timeout)
            except RpcTimeout:
                self._m_deadlines_missed.inc()
                raise DeadlineExceededError(
                    f"control call {method!r} missed its "
                    f"{self.config.control_deadline_s}s deadline"
                ) from None
            except RpcRemoteError as exc:
                err = translated(exc)
                if isinstance(err, MasterUnavailableError):
                    # a zombie handler on a crashed master refused to
                    # commit; redial and try again
                    yield from self._redial_master(deadline, shard)
                    continue
                raise err from None
            except (RdmaError, RpcError, ChannelClosed):
                # channel death: the shard crashed, or we are cut off
                yield from self._redial_master(deadline, shard)
                continue
            return result

    def _redial_master(self, deadline, shard: int):
        """Re-dial one shard's control service (generator).

        Bounded even for deadline-less (blocking) calls — they get a
        redial budget of ``control_deadline_s`` so a master that never
        comes back cannot park a retry loop forever.  Raises
        :class:`MasterUnavailableError` when the budget drains.
        """
        self._m_master_redials.inc()
        cfg = self.config
        if deadline is None:
            deadline = self.sim.now + cfg.control_deadline_s
        try:
            yield from self._router.redial(shard, deadline, self._retry_rng)
        except DeadlineExceededError:
            self._m_deadlines_missed.inc()
            raise MasterUnavailableError(
                "master unreachable within the control deadline"
            ) from None

    def _mutate(self, method: str, *args):
        """Epoch-stamped mutating control call (generator).

        The call carries this client's view of the owning shard's
        epoch; a shard that has moved on fences it with
        StaleEpochError.  One refresh-and-retry is built in — the point
        of the fence is to force exactly that refresh, not to fail the
        application.
        """
        shard = self._router.shard_of(args[0])
        epochs = self._meta.epochs
        try:
            result = yield from self._master_call(
                method, *args, epochs.get(shard, 0), shard=shard
            )
        except StaleEpochError:
            yield from self._meta.resync(shard)
            result = yield from self._master_call(
                method, *args, epochs.get(shard, 0), shard=shard
            )
        return result

    def alloc(self, name: str, size: int, stripe_size: Optional[int] = None,
              preferred_host: Optional[int] = None,
              replication: Optional[int] = None):
        """Allocate a named region (generator); returns its descriptor.

        ``preferred_host`` is a locality hint: place the whole region on
        that memory server when it has capacity.  ``replication`` > 1
        keeps that many copies of each stripe on distinct servers.
        """
        desc = yield from self._mutate(
            "alloc", name, size, stripe_size, preferred_host, replication
        )
        self._meta.store(name, self._router.shard_of(name), desc)
        return desc

    def lookup(self, name: str):
        """Fetch a region descriptor by name (generator).

        Always asks the owning shard — tests and retry loops poll
        ``lookup`` to observe repair progress, so it must never serve a
        cached descriptor.  The reply refreshes the cache for ``map``.
        """
        shard = self._router.shard_of(name)
        # capture the observed epoch *before* the RPC: the refusal (if
        # any) is only valid as of this era — see store_negative
        as_of = self._meta.epochs.get(shard, 0)
        try:
            desc = yield from self._master_call("lookup", name, shard=shard)
        except RegionNotFoundError:
            self._meta.store_negative(name, shard, as_of=as_of)
            raise
        self._meta.store(name, shard, desc)
        return desc

    def free(self, name: str):
        """Release a region cluster-wide (generator).

        The lease goes whatever the outcome: a refusal (someone else
        freed the name) means the cached descriptor points at recycled
        arena bytes.
        """
        try:
            return (yield from self._mutate("free", name))
        finally:
            self._meta.evict(name)

    def list_regions(self):
        """All region names, across every shard (generator)."""
        owned = yield from self.sim.gather(
            self._master_call("list_regions", shard=shard)
            for shard in range(self._router.num_shards)
        )
        return sorted(name for names in owned for name in names)

    def map(self, region: Union[RegionDesc, str], wire_scale: int = 1):
        """Map a region for data-path access (generator).

        Resolves the descriptor (if given a name) — through the leased
        metadata cache, so a warm re-map costs **zero** control RPCs
        until the owning shard's epoch moves — then ensures a connected
        data QP to every hosting server.  QPs are cached across
        mappings, so only first contact with a server pays the
        connection cost.  Every read and write through the mapping
        stands for *wire_scale* times its bytes on the wire (scaled
        experiments); its atomics are never scaled.
        """
        if wire_scale < 1:
            raise RStoreError(f"wire_scale must be >= 1, got {wire_scale}")
        span = self.obs.tracer.span("control.client.map", kind="control",
                                    host=self.nic.host.host_id)
        desc = region
        by_name = isinstance(region, str)
        try:
            if by_name:
                desc = yield from self._meta.resolve(region)
            for refreshed in (False, True):
                self._meta.note_epoch(desc.epoch,
                                      self._router.shard_of(desc.name))
                if not desc.available:
                    raise RegionUnavailableError(desc.unavailable_reason)
                mapping = mapping_class(self.config)(self, desc,
                                                     wire_scale)
                try:
                    yield from self._ensure_qps(desc)
                except RdmaError:
                    # a hosting server is unreachable; if the descriptor
                    # came from the cache it may simply be a stale lease
                    # — drop it and ask the owning shard once before
                    # failing
                    if refreshed or not by_name:
                        raise
                    self._meta.evict(region)
                    desc = yield from self.lookup(region)
                    continue
                break
        except Exception:
            span.finish(ok=False)
            raise
        span.finish(region=desc.name, hosts=len(desc.hosts))
        return mapping

    def _ensure_qps(self, desc: RegionDesc):
        """Connected data QP to every host of *desc* (generator).

        Reconnects cached QPs that have gone to ERROR (server death or
        injected fault), so a remap after a retry really gets a usable
        path.  The client-wide ``_data_qps`` is the only QP table:
        every mapping posts through it.
        """
        for host_id in desc.hosts:
            qp = self._data_qps.get(host_id)
            if qp is None or qp.state is not QpState.CONNECTED:
                # concurrent maps share one dial per host: a second QP
                # would replace the first here and stay connected there
                yield from self.sim.single_flight(
                    self._qp_dials, host_id, partial(self._dial_qp, host_id))

    def _dial_qp(self, host_id: int):
        """Connect and cache the data QP to *host_id* (generator)."""
        qp = self._data_qps[host_id] = yield from self.cm.connect(
            self.nic,
            host_id,
            self.config.data_service,
            self._pd,
            self._io.cq,
            sq_depth=DATA_SQ_DEPTH,
        )
        self.setup_events += 1
        return qp

    def alloc_local(self, length: int):
        """Register a private local buffer for zero-copy IO (generator)."""
        return self.nic.reg_mr(self._pd, length=length)

    # -- synchronization ----------------------------------------------------------

    def barrier(self, name: str, count: int):
        """Wait at a named cluster barrier (generator)."""
        return self._master_call("barrier", name, count)

    def notify(self, name: str, payload=None):
        """Publish a named notification (generator)."""
        return self._master_call("notify", name, payload)

    def wait_note(self, name: str):
        """Wait for a named notification (generator)."""
        return self._master_call("wait_note", name)
