"""The RStore master: names, allocation, liveness, synchronization.

The master is pure control path.  It owns the namespace (name → region
descriptor), places and reserves stripes in its own slices of the
memory servers' arenas, and watches server leases.  It also exposes small
synchronization primitives (barriers, notifications) that the paper's
applications use to coordinate — all RPC, none of it ever on the data
path.

Sharding (see DESIGN.md "Partitioned control plane"): a deployment
runs ``config.control_shards`` master instances, each one **shard** of
the metadata namespace addressed by consistent hashing over qualified
region names (``core/shard.py``).  Every shard owns its own metalog,
epoch, lease table and repair planner, so one shard crashing and
recovering never stalls the names the others own.  Shards also enforce
per-tenant capacity quotas against their slice of the namespace.

Crash recovery (see DESIGN.md "Crash recovery & fencing"): every
mutating control RPC appends to a write-ahead :class:`MetaLog` before
replying — the append is the commit point.  A restarted master replays
checkpoint + log, bumps the cluster *epoch*, waits a grace period for
servers to re-register (their bytes are intact; a re-registering
server's slice is rebuilt from the replayed descriptors), declares the
stragglers dead, and re-queues any
repair that was in flight.  Stale-epoch control RPCs and one-sided ops
are fenced with :class:`StaleEpochError`.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.core.allocator import ServerSlot, StripeAllocator
from repro.core.arena import Arena
from repro.core.config import RStoreConfig
from repro.core.errors import (
    AllocationError,
    MasterUnavailableError,
    RegionExistsError,
    RegionNotFoundError,
    RStoreError,
    StaleEpochError,
    TenantQuotaExceededError,
)
from repro.core.metalog import MetaLog, RecoveredState
from repro.core.region import RegionDesc, split_into_stripes
from repro.core.repair import RepairPlanner
from repro.core.shard import (
    ShardMap,
    shard_service,
    split_quota,
    tenant_of,
)
from repro.obs import obs_for
from repro.rdma.cm import ConnectionManager
from repro.rdma.nic import RNic
from repro.rpc.endpoint import RpcClientPool, RpcServer
from repro.sanitize import rsan_for
from repro.simnet.kernel import Simulator

__all__ = ["Master"]


class Master:
    """The metadata and coordination service."""

    def __init__(
        self,
        sim: Simulator,
        nic: RNic,
        cm: ConnectionManager,
        config: Optional[RStoreConfig] = None,
        metalog: Optional[MetaLog] = None,
        shard_id: int = 0,
    ):
        self.sim = sim
        self.nic = nic
        self.cm = cm
        self.config = config or RStoreConfig()
        #: which metadata shard this instance is (0 in the single-master
        #: deployment); decides namespace ownership and the service id
        self.shard_id = shard_id
        self.shard_map = ShardMap(self.config.control_shards)
        if not 0 <= shard_id < self.shard_map.num_shards:
            raise ValueError(
                f"shard_id {shard_id} out of range for "
                f"{self.shard_map.num_shards} control shards"
            )
        self.allocator = StripeAllocator()
        self.repair = RepairPlanner(self)
        self.regions: dict[str, RegionDesc] = {}
        self.metalog = metalog if metalog is not None else MetaLog(sim)
        #: the cluster epoch: bumped on every master recovery and every
        #: server death; descriptors and server slots carry it, stale
        #: holders are fenced
        self.epoch = 0
        self._next_region_id = 1
        self._server_rpc = RpcClientPool(sim, nic, cm)
        self._barriers: dict[str, dict] = {}
        self._notes: dict[str, object] = {}
        self._note_waiters: dict[str, list] = {}
        self._rpc: Optional[RpcServer] = None
        self.alive = True
        #: True between restart and the end of the re-registration grace
        #: period; mutating RPCs park until recovery finishes
        self.recovering = False
        self._recovery_waiters: list = []
        self._awaiting_rejoin: set[int] = set()
        self.obs = obs_for(sim)
        #: logical bytes (size × target replication) each tenant has
        #: committed on this shard — the quota ledger
        self.tenant_bytes: dict[str, int] = {}

    def start(self):
        """Boot the master (generator); replays the metalog if any."""
        cfg = self.config
        state = self.metalog.replay()
        recovering = bool(state.regions or state.servers or state.epoch)
        if recovering:
            yield from self._begin_recovery(state)
        self._rpc = RpcServer(
            self.sim, self.nic, self.cm,
            shard_service(cfg.master_service, self.shard_id)
        )
        for method in (
            "register_server",
            "heartbeat",
            "alloc",
            "free",
            "lookup",
            "list_regions",
            "cluster_stats",
            "barrier",
            "notify",
            "wait_note",
        ):
            self._rpc.register(
                method, self._counted(method, getattr(self, f"_{method}"))
            )
        yield from self._rpc.start()
        self.sim.process(self._lease_checker(), name="master-lease-checker")
        self.repair.start()
        if recovering:
            self.sim.process(self._finish_recovery(), name="master-recovery")
        return self

    def crash(self) -> None:
        """Fail-stop: the master process vanishes mid-flight.

        In-memory state (namespace, membership, waiters) is lost; only
        the metalog survives.  Every RPC connection is torn down so
        peers observe channel death instead of hanging, and any handler
        still running refuses to commit (see :meth:`_log`).
        """
        self.alive = False
        if self._rpc is not None:
            self._rpc.stop("master crashed")
        for client in self._server_rpc.clients.values():
            client.abort("master crashed")
        self._server_rpc.clients.clear()

    def _counted(self, method: str, handler):
        """Wrap an RPC handler so every dispatch bumps its counter.

        The census relies on these: after warm-up, every data-path op
        must leave ``master.rpc_served`` untouched.
        """
        counter = self.obs.metrics.counter("master.rpc_served",
                                           method=method,
                                           shard=self.shard_id)

        @functools.wraps(handler)
        def wrapped(*args, **kwargs):
            counter.inc()
            return (yield from handler(*args, **kwargs))

        return wrapped

    # -- the write-ahead metadata log -----------------------------------------

    def _log(self, kind: str, payload):
        """Durably append one record (generator) — the commit point.

        A crashed master must not commit: a handler generator that was
        already in flight when :meth:`crash` ran dies here instead of
        writing a post-crash record to the durable log.
        """
        if not self.alive:
            raise MasterUnavailableError("master crashed")
        # checkpoint BEFORE appending: callers mutate in-memory state
        # after their append returns (alloc inserts the region only once
        # the record is durable), so a snapshot taken now covers every
        # record already in the tail — taken after, it would miss the
        # in-flight record yet truncate it with the tail
        if not self.recovering:
            yield from self.metalog.maybe_checkpoint(self._snapshot_state)
        yield from self.metalog.append(kind, payload)

    def _snapshot_state(self) -> RecoveredState:
        return RecoveredState(
            regions=dict(self.regions),
            servers={
                s.host_id: (s.capacity, s.rkey, s.epoch, s.alive)
                for s in self.allocator.servers
            },
            epoch=self.epoch,
            next_region_id=self._next_region_id,
            notes=dict(self._notes),
        )

    # -- recovery -------------------------------------------------------------

    def _begin_recovery(self, state: RecoveredState):
        """Adopt replayed state and open the re-registration window."""
        self.recovering = True
        self.regions = state.regions
        self._next_region_id = state.next_region_id
        self._notes = dict(state.notes)
        self._recount_tenants()
        self.epoch = state.epoch + 1
        # servers that were alive at the crash are presumed alive — their
        # bytes are intact — but must re-register within the grace
        # period, which rebuilds their slices; the inflated lease below
        # is that grace, so the lease checker cannot race the recovery
        # window
        lease = self.sim.now + self.config.recovery_grace_s
        for host_id in sorted(state.servers):
            capacity, rkey, epoch, alive = state.servers[host_id]
            if not alive:
                continue
            self.allocator.add_server(ServerSlot(
                host_id=host_id,
                capacity=capacity,
                rkey=rkey,
                alive=True,
                last_heartbeat=lease,
                epoch=epoch,
            ))
            self._awaiting_rejoin.add(host_id)
        yield from self._log("epoch", self.epoch)

    def _finish_recovery(self):
        """After the grace period: bury the stragglers, resume repair."""
        yield self.sim.timeout(self.config.recovery_grace_s)
        if not self.alive:
            # crashed again mid-recovery: this instance's grace period
            # is void, the next restart replays and re-opens its own
            return
        for host_id in sorted(self._awaiting_rejoin):
            slot = self.allocator.get_server(host_id)
            if slot is not None and slot.alive:
                yield from self._declare_dead(
                    slot, why="no re-registration after master recovery"
                )
        self._awaiting_rejoin.clear()
        # resume in-flight repair: anything under-replicated goes back on
        # the queue, whether it was degraded before the crash or during it
        for name in sorted(self.regions):
            region = self.regions[name]
            if region.available and any(
                s.replication < region.target_replication
                for s in region.stripes
            ):
                self.repair.enqueue_degraded(region)
        self.recovering = False
        self.repair._note(f"master recovered at epoch {self.epoch}")
        waiters, self._recovery_waiters = self._recovery_waiters, []
        for waiter in waiters:
            waiter.succeed(True)

    def _ready(self):
        """Park mutating RPCs until recovery finishes (generator)."""
        if self.recovering:
            event = self.sim.event()
            self._recovery_waiters.append(event)
            yield event

    def _fence(self, epoch) -> None:
        """Reject a control RPC carrying a stale epoch (``None`` skips)."""
        if epoch is not None and epoch < self.epoch:
            raise StaleEpochError(
                f"request epoch {epoch} is behind cluster epoch {self.epoch}"
            )

    @staticmethod
    def _in_era(region: RegionDesc, slot: Optional[ServerSlot]) -> bool:
        """Whether *region*'s replicas on *slot*'s host live in the
        slot's arena: the server is a member and the region was
        described in its current era.  A region that lost that host
        before it re-registered fresh still names the old bytes."""
        return slot is not None and slot.alive and region.epoch >= slot.epoch

    def _replicas_on_host(self, slot: ServerSlot):
        """``(addr, length)`` of every replica the metadata places in
        *slot*'s arena."""
        for region in self.regions.values():
            if not self._in_era(region, slot):
                continue
            for stripe in region.stripes:
                for replica in stripe.replicas:
                    if replica.host_id == slot.host_id:
                        yield replica.addr, stripe.length

    # -- sharding & tenancy ---------------------------------------------------

    def _owned(self, name: str) -> None:
        """Refuse a region RPC the shard map routes elsewhere.

        The router never misroutes — this guards against stale clients
        computed against a different shard count, which must fail loudly
        rather than split one name's metadata across two WALs.
        """
        if self.shard_map.num_shards == 1:
            return
        owner = self.shard_map.shard_of(name)
        if owner != self.shard_id:
            raise RStoreError(
                f"region {name!r} belongs to shard {owner}, not shard "
                f"{self.shard_id} — the caller's shard map is wrong"
            )

    def _quota_for(self, tenant: str) -> Optional[int]:
        """This shard's share of *tenant*'s quota (None = unlimited)."""
        quotas = self.config.tenant_quota_bytes
        if quotas is None or tenant not in quotas:
            return None
        return split_quota(quotas[tenant], self.shard_map.num_shards,
                           self.shard_id)

    def _check_quota(self, tenant: str, want: int) -> None:
        """Admission control: *want* more logical bytes for *tenant*."""
        quota = self._quota_for(tenant)
        if quota is None:
            return
        used = self.tenant_bytes.get(tenant, 0)
        if used + want > quota:
            self.obs.metrics.counter("master.quota_denied", tenant=tenant,
                                     shard=self.shard_id).inc()
            raise TenantQuotaExceededError(
                f"tenant {tenant!r} would hold {used + want} bytes on "
                f"shard {self.shard_id}, over its {quota}-byte share"
            )

    def _charge_tenant(self, tenant: str, delta: int) -> None:
        """Move *tenant*'s ledger by *delta* logical bytes."""
        used = self.tenant_bytes.get(tenant, 0) + delta
        self.tenant_bytes[tenant] = max(0, used)
        self.obs.metrics.gauge("master.tenant_bytes", tenant=tenant,
                               shard=self.shard_id).set(
            self.tenant_bytes[tenant]
        )

    def _recount_tenants(self) -> None:
        """Rebuild the quota ledger from the (replayed) namespace."""
        self.tenant_bytes = {}
        for name, region in self.regions.items():
            tenant = tenant_of(name)
            self.tenant_bytes[tenant] = (
                self.tenant_bytes.get(tenant, 0)
                + region.size * region.target_replication
            )
        for tenant, used in self.tenant_bytes.items():
            self.obs.metrics.gauge("master.tenant_bytes", tenant=tenant,
                                   shard=self.shard_id).set(used)

    # -- membership -----------------------------------------------------------

    def _register_server(self, host_id, base, capacity, rkey, fresh=True):
        """Admit a server's slice ``[base, base+capacity)`` of its MR."""
        yield self.sim.timeout(0)
        existing = self.allocator.get_server(host_id)
        if not fresh and (existing is None or not existing.alive):
            # The server only noticed the master's outage — but its own
            # lease expired too (this master, or the one whose log we
            # replayed, buried it).  Its replicas are gone from every
            # descriptor, so a keep-my-slice rejoin would resurrect a
            # zombie: old-epoch descriptors could then write straight
            # into bytes repair is recycling.  Override to fresh; the
            # reply tells the server to take a new fence.
            fresh = True
        slot = ServerSlot(
            host_id=host_id,
            capacity=capacity,
            rkey=rkey,
            alive=True,
            last_heartbeat=self.sim.now,
            epoch=self.epoch,
        )
        if fresh:
            # A rebooted (or falsely declared dead) server registers with
            # a clean slice: its replicas were already dropped from every
            # descriptor, so it donates its full capacity again.  It is
            # fenced at the current epoch — one-sided ops stamped with an
            # older descriptor epoch must NAK rather than touch the
            # recycled bytes.
            slot.arena = Arena(base, capacity)
            if existing is not None:
                self.repair._note(f"server {host_id} rejoined the cluster")
        else:
            # The server lost touch with us but stayed a member.  If the
            # *master* restarted, the slice is rebuilt from the replayed
            # descriptors: a reservation whose alloc never reached its
            # commit point died with the old master's arena.
            slot.epoch = existing.epoch
            slot.arena = existing.arena or Arena.holding(
                base, capacity, self._replicas_on_host(slot)
            )
            self.repair._note(
                f"server {host_id} re-registered after master recovery"
            )
        self.allocator.add_server(slot)
        self._awaiting_rejoin.discard(host_id)
        yield from self._log(
            "server", (host_id, capacity, rkey, slot.epoch, True)
        )
        return {"epoch": slot.epoch, "fresh": fresh}

    def _heartbeat(self, host_id):
        yield self.sim.timeout(0)
        slot = self.allocator.get_server(host_id)
        if slot is None or not slot.alive:
            # The master no longer counts this server as a member — it
            # rebooted, or a heartbeat gap made the lease checker declare
            # it dead.  Its replicas are already gone from every
            # descriptor, so recovery is simply: register again.
            return {"needs_register": True, "epoch": self.epoch}
        slot.last_heartbeat = self.sim.now
        return {"needs_register": False, "epoch": self.epoch}

    def _lease_checker(self):
        cfg = self.config
        while self.alive:
            yield self.sim.timeout(cfg.heartbeat_interval_s)
            if not self.alive:
                return
            deadline = self.sim.now - cfg.lease_timeout_s
            for slot in self.allocator.servers:
                if slot.alive and slot.last_heartbeat < deadline:
                    yield from self._declare_dead(slot)

    def _declare_dead(self, slot: ServerSlot, why: str = "lease expired"):
        """Expel a server and fence its era (generator: logs + epoch bump)."""
        # Placement and repair only ever consider *alive* slots, so
        # quarantine is implicit; a rejoin is fresh, with a new slice.
        slot.alive = False
        self._server_rpc.clients.pop(slot.host_id, None)
        dead = slot.host_id
        self.epoch += 1
        yield from self._log("epoch", self.epoch)
        yield from self._log(
            "server", (dead, slot.capacity, slot.rkey, slot.epoch, False)
        )
        self.repair._note(f"server {dead} declared dead ({why})")
        for region in self.regions.values():
            if not region.available:
                continue
            affected = [
                s for s in region.stripes
                if any(r.host_id == dead for r in s.replicas)
            ]
            if not affected:
                continue
            if all(s.replication > 1 for s in affected):
                # Promote surviving replicas: the region stays available
                # under a new descriptor version; clients learn on their
                # next lookup/remap.  The repair planner then restores
                # the lost copies in the background.
                region.stripes = [
                    s.without_host(dead)
                    if any(r.host_id == dead for r in s.replicas)
                    else s
                    for s in region.stripes
                ]
                region.version += 1
                region.epoch = self.epoch
                yield from self._log("region", region)
                self.repair.enqueue_degraded(region)
            else:
                region.available = False
                region.unavailable_reason = (
                    f"memory server {dead} failed"
                )
                yield from self._log("region", region)

    # -- allocation ---------------------------------------------------------------

    def _server_client(self, host_id: int):
        """Lazily connect to a memory server's control service (generator)."""
        return self._server_rpc.get(host_id, host_id, self.config.mem_service)

    def _alloc(self, name, size, stripe_size=None, preferred_host=None,
               replication=None, epoch=None):
        self._fence(epoch)
        self._owned(name)
        yield from self._ready()
        if name in self.regions:
            raise RegionExistsError(f"region {name!r} already exists")
        if stripe_size is None:
            stripe_size = self.config.stripe_size
        if replication is None:
            replication = self.config.default_replication
        for arg, value in (("size", size), ("stripe_size", stripe_size),
                           ("replication", replication)):
            if value <= 0:
                raise AllocationError(
                    f"allocation of {name!r}: {arg} must be positive, "
                    f"got {value}")
        tenant = tenant_of(name)
        # admission before placement: a quota denial must not consume
        # placement RNG state or reservations
        self._check_quota(tenant, size * replication)
        stripes = self.allocator.place(
            split_into_stripes(size, stripe_size),
            preferred_host=preferred_host, replication=replication,
        )
        region = RegionDesc(
            region_id=self._next_region_id,
            name=name,
            size=size,
            stripe_size=stripe_size,
            stripes=stripes,
            target_replication=replication,
            epoch=self.epoch,
        )
        self._next_region_id += 1
        region.validate()
        # commit point: if the master dies before this append, the
        # reservations above die with its arenas
        yield from self._log("region", region)
        self.regions[name] = region
        self._charge_tenant(tenant, size * replication)
        return region

    def _free(self, name, epoch=None):
        """Release a region (generator).

        The ``free`` record comes first and is the commit point: no
        reservation is handed back, so no byte recycled, before the
        region is durably gone.  Past it every replica in a live
        server's current era goes back to this master's slice of that
        server — locally, so capacity is back when ``free`` returns.
        """
        self._fence(epoch)
        self._owned(name)
        yield from self._ready()
        region = self.regions.pop(name, None)
        if region is None:
            raise RegionNotFoundError(f"no region named {name!r}")
        self._charge_tenant(
            tenant_of(name), -region.size * region.target_replication
        )
        yield from self._log("free", name)
        for stripe in region.stripes:
            for replica in stripe.replicas:
                # a dead server's bytes died with it (and a server dead
                # at a master restart is not in the allocator at all)
                slot = self.allocator.get_server(replica.host_id)
                if self._in_era(region, slot):
                    slot.arena.release(replica.addr)
        rsan = rsan_for(self.sim)
        if rsan.enabled:
            # the bytes are back in the arena allocator: drop every
            # shadow interval so accesses to a recycled range are never
            # matched against the dead region's history
            rsan.clear_region(region, None)
        return True

    def _lookup(self, name):
        yield self.sim.timeout(0)
        self._owned(name)
        region = self.regions.get(name)
        if region is None:
            raise RegionNotFoundError(f"no region named {name!r}")
        return region

    def _list_regions(self):
        yield self.sim.timeout(0)
        return sorted(self.regions)

    def _cluster_stats(self):
        yield self.sim.timeout(0)
        return {
            "servers": len(self.allocator.servers),
            "alive_servers": len(self.allocator.alive_servers),
            "total_free": self.allocator.total_free,
            "regions": len(self.regions),
            "epoch": self.epoch,
            "recovering": self.recovering,
            "shard": self.shard_id,
            "tenant_bytes": dict(self.tenant_bytes),
        }

    # -- synchronization ------------------------------------------------------------

    def _barrier(self, name, count):
        """Block until *count* participants have arrived at *name*."""
        if count < 1:
            raise RStoreError(
                f"barrier {name!r} needs count >= 1, got {count}")
        entry = self._barriers.get(name)
        if entry is None:
            entry = {"arrived": 0, "count": count, "waiters": [],
                     "generation": 0}
            self._barriers[name] = entry
        if entry["count"] != count:
            raise RStoreError(
                f"barrier {name!r} size mismatch: {entry['count']} != {count}"
            )
        entry["arrived"] += 1
        generation = entry["generation"]
        if entry["arrived"] >= count:
            waiters = entry["waiters"]
            entry["arrived"] = 0
            entry["waiters"] = []
            entry["generation"] += 1
            for waiter in waiters:
                waiter.succeed(generation)
            yield self.sim.timeout(0)
            return generation
        event = self.sim.event()
        entry["waiters"].append(event)
        result = yield event
        return result

    def _notify(self, name, payload=None):
        # a note is control-plane metadata like any region descriptor:
        # rendezvous state (kv.<name>.meta) must survive a master crash
        # or every post-restart open waits on it forever
        yield from self._ready()
        yield from self._log("note", (name, payload))
        self._notes[name] = payload
        for waiter in self._note_waiters.pop(name, []):
            waiter.succeed(payload)
        return True

    def _wait_note(self, name):
        if name in self._notes:
            yield self.sim.timeout(0)
            return self._notes[name]
        event = self.sim.event()
        self._note_waiters.setdefault(name, []).append(event)
        payload = yield event
        return payload
