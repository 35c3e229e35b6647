"""The memory server: a host donating DRAM to the store.

At startup the server registers its whole donation with its NIC
**once** (the expensive pinning happens here, never on the data path),
opens two fabric services —

* ``rstore-mem``: control RPC used by the master to drive repair
  copies, by the two-sided ablation to read/write through the CPU, and
  by the server-op data path (``dp_exec``);
* ``rstore-data``: a passive endpoint clients connect their data QPs
  to; all normal traffic on it is one-sided and never schedules a
  single instruction on this host —

and then announces itself to every metadata shard and starts
heartbeating each one.  If a shard replies that it no longer knows us
(reboot, or a heartbeat gap that tripped the lease checker), the
server registers with it again, fresh — rejoining is just
re-registration.

The donation is cut into one slice per metadata shard (the whole MR
when ``config.control_shards == 1``), and each registration hands a
shard its slice's base and capacity.  The shard's master owns that
slice's free space: it carves and returns stripes itself, so no
allocation or free ever runs on this host, and a fresh registration
with one shard recycles only that shard's bytes, never memory another
shard's descriptors still point at.  The MR stays a single
registration — slicing is pure bookkeeping, the data path is
untouched.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import RStoreConfig
from repro.core.errors import DeadlineExceededError, RStoreError
from repro.core.pipeline import DATA_SQ_DEPTH, MAX_WIRE_CHUNK
from repro.core.shard import ShardRouter
from repro.rdma.cm import ConnectionManager
from repro.rdma.nic import RNic
from repro.rdma.types import Access, Opcode, QpState, RdmaError
from repro.rdma.wr import SendWR
from repro.rpc.channel import ChannelClosed
from repro.rpc.endpoint import RpcError, RpcRemoteError, RpcServer
from repro.simnet.kernel import Simulator
from repro.simnet.rand import derive_rng

__all__ = ["MemoryServer"]

#: how long a server keeps re-trying to reach a crashed master
#: before giving up and shutting down
SERVER_REJOIN_DEADLINE_S = 5.0


class _CopyOp:
    """Completion tracker for one ``copy_stripe`` fan of READ WRs."""

    __slots__ = ("event", "remaining", "failure")

    def __init__(self, sim: Simulator, total: int):
        self.event = sim.event()
        self.remaining = total
        self.failure: Optional[Exception] = None

    def on_completion(self, wc) -> None:
        if not wc.ok and self.failure is None:
            self.failure = RStoreError(
                f"stripe copy failed: {wc.status.value} {wc.detail}"
            )
        self._retire()

    def abort(self, exc: Exception) -> None:
        if self.failure is None:
            self.failure = exc
        self._retire()

    def _retire(self) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            if self.failure is not None:
                self.event.fail(self.failure)
            else:
                self.event.succeed()


class MemoryServer:
    """One memory server daemon."""

    def __init__(
        self,
        sim: Simulator,
        nic: RNic,
        cm: ConnectionManager,
        config: Optional[RStoreConfig] = None,
        *,
        capacity: int,
    ):
        self.sim = sim
        self.nic = nic
        self.cm = cm
        self.config = config or RStoreConfig()
        #: DRAM this server donates (lazily filled blocks, so large
        #: values are cheap until written)
        self.capacity = capacity
        self.host_id = nic.host.host_id
        self.arena_mr = None
        self.alive = False
        self._rpc: Optional[RpcServer] = None
        self._router: Optional[ShardRouter] = None
        #: shards whose rejoin deadline drained — the server only stands
        #: down once every shard's heartbeat loop has given up
        self._dead_shards: set[int] = set()
        self._data_pd = None
        #: CQ + QP cache for control-path repair copies from peer arenas
        self._copy_cq = None
        self._peer_qps: dict[int, object] = {}
        #: optional fault injector (wired by the cluster builder)
        self.faults = None
        #: server-op executor (see repro.datapath), built at start()
        self._dp = None

    def start(self):
        """Boot the server (generator): arena, services, registration."""
        cfg = self.config
        self._data_pd = yield from self.nic.alloc_pd()
        data_cq = yield from self.nic.create_cq()
        # One registration for the whole donation — the control-path
        # cost RStore pays once so the data path never does.
        self.arena_mr = yield from self.nic.reg_mr(
            self._data_pd, length=self.capacity, access=Access.all_remote()
        )

        self._rpc = RpcServer(
            self.sim, self.nic, self.cm, f"{cfg.mem_service}"
        )
        self._rpc.register("copy_stripe", self._copy_stripe)
        self._rpc.register("ts_read", self._ts_read)
        self._rpc.register("ts_write", self._ts_write)
        # composite server-op execution (see repro.datapath): deferred
        # import so the core server module stays light to import
        from repro.datapath.server_exec import ServerOpExecutor
        self._dp = ServerOpExecutor(self)
        self._rpc.register("dp_exec", self._dp.execute)
        yield from self._rpc.start()

        self.cm.listen(self.nic, cfg.data_service, self._data_pd, data_cq)

        self._copy_cq = yield from self.nic.create_cq()
        self._copy_cq.consume(self._copy_completed)

        self._router = ShardRouter(self.sim, self.nic, self.cm, cfg)
        yield from self._router.connect_all()
        for shard_id in range(cfg.control_shards):
            yield from self._register(shard_id, fresh=True)
        self.alive = True
        for shard_id in range(cfg.control_shards):
            name = (f"hb-{self.host_id}" if shard_id == 0
                    else f"hb-{self.host_id}-s{shard_id}")
            self.sim.process(self._heartbeat_loop(shard_id), name=name)
        return self

    def _shard_extent(self, shard_id: int) -> tuple[int, int]:
        """``(base, capacity)`` of one shard's slice of the donation."""
        num = self.config.control_shards
        if num == 1:
            return self.arena_mr.addr, self.capacity
        # equal slices, floored to the arena alignment so every slice
        # base stays 64-byte aligned; the sub-alignment tail is unused
        share = (self.capacity // num) & ~63
        return self.arena_mr.addr + shard_id * share, share

    def kill(self) -> None:
        """Fail the whole host: NIC dead, heartbeats stop."""
        self.alive = False
        self.nic.kill()

    # -- RPC handlers -------------------------------------------------------

    def _copy_stripe(self, src_host, src_addr, src_rkey, dst_addr, length):
        """Pull *length* bytes from a peer's arena into ours (generator).

        The repair data copy: driven by the master over control RPC, but
        executed as one-sided READs from the surviving replica's arena —
        the *source* host's CPU stays idle, keeping repair invisible to
        its data-path traffic.  ``dst_addr`` must be a reservation the
        master just made in its slice of this server.
        """
        qp = self._peer_qps.get(src_host)
        if qp is None or qp.state is not QpState.CONNECTED:
            qp = yield from self.cm.connect(
                self.nic,
                src_host,
                self.config.data_service,
                self._data_pd,
                self._copy_cq,
                sq_depth=DATA_SQ_DEPTH,
            )
            self._peer_qps[src_host] = qp
        chunk = MAX_WIRE_CHUNK
        pieces = [
            (pos, min(chunk, length - pos)) for pos in range(0, length, chunk)
        ]
        if len(pieces) > qp.sq_depth:
            raise RStoreError(
                f"stripe of {length} bytes needs {len(pieces)} copy WRs, "
                f"more than the send queue holds ({qp.sq_depth})"
            )
        op = _CopyOp(self.sim, len(pieces))
        for pos, take in pieces:
            wr = SendWR(
                opcode=Opcode.RDMA_READ,
                wr_id=op,
                local_mr=self.arena_mr,
                local_addr=dst_addr + pos,
                length=take,
                remote_addr=src_addr + pos,
                rkey=src_rkey,
            )
            # repair copies are master-coordinated; mark them so the
            # race sanitizer treats them as synchronized plumbing
            wr.rsan_sync = True
            try:
                qp.post_send(wr)
            except RdmaError as exc:
                op.abort(RStoreError(f"copy post failed: {exc}"))
        yield op.event
        return length

    def _copy_completed(self, wc) -> None:
        op = wc.wr_id
        if isinstance(op, _CopyOp):
            op.on_completion(wc)

    def _ts_read(self, addr, length):
        """Two-sided ablation: read arena bytes through the server CPU."""
        offset = self.arena_mr.offset_of(addr)
        yield from self.nic.host.cpu.copy(length)
        return self.arena_mr.buffer.read(offset, length)

    def _ts_write(self, addr, payload):
        """Two-sided ablation: write arena bytes through the server CPU."""
        offset = self.arena_mr.offset_of(addr)
        yield from self.nic.host.cpu.copy(len(payload))
        self.arena_mr.buffer.write(offset, payload)
        return len(payload)

    # -- liveness -----------------------------------------------------------

    def _heartbeat_loop(self, shard_id: int):
        assert self._router is not None
        while self.alive and shard_id not in self._dead_shards:
            if (self.faults is not None
                    and self.faults.drops_heartbeat(self.host_id)):
                yield self.sim.timeout(self.config.heartbeat_interval_s)
                continue
            unreachable = False
            try:
                master = yield from self._router.client_for(shard_id)
                # the timeout matters under partitions: the heartbeat or
                # its reply vanishes, and without a bound this loop
                # would hang forever
                reply = yield from master.call(
                    "heartbeat", self.host_id,
                    timeout=self.config.lease_timeout_s,
                )
            except RpcRemoteError as exc:
                if exc.error_type != "MasterUnavailableError":
                    # transient master-side failure (e.g. injected
                    # fault): the master is up, so try again next period
                    yield self.sim.timeout(self.config.heartbeat_interval_s)
                    continue
                unreachable = True
            except (RpcError, ChannelClosed, RdmaError):
                unreachable = True
            if unreachable:
                # channel death, a timed-out call, or a crashed shard:
                # rejoin within the deadline or give this shard up —
                # the server stands down only when every shard is gone
                if not (yield from self._rejoin_master(shard_id)):
                    self._stand_down(shard_id)
                    return
                continue
            if isinstance(reply, dict) and reply.get("needs_register"):
                try:
                    # the shard dropped every replica we hosted for it:
                    # donate the slice again, fresh; clients holding
                    # stale descriptors are cut off by the new fence
                    yield from self._register(shard_id, fresh=True)
                except (RpcError, ChannelClosed, RdmaError):
                    if not (yield from self._rejoin_master(shard_id)):
                        self._stand_down(shard_id)
                        return
                    continue
            yield self.sim.timeout(self.config.heartbeat_interval_s)

    def _stand_down(self, shard_id: int) -> None:
        """One shard's rejoin deadline drained for good.

        Other shards' slices stay donated; only when the last shard is
        unreachable does the server die (matching the single-master
        behaviour exactly when ``control_shards == 1``).
        """
        self._dead_shards.add(shard_id)
        if len(self._dead_shards) >= self.config.control_shards:
            self.alive = False

    def _register(self, shard_id: int, fresh: bool):
        """Announce our slice to one metadata shard (generator).

        A *fresh* registration donates a clean slice; the epoch in the
        reply becomes this NIC's fence for that shard, so one-sided ops
        stamped with descriptors from an older era bounce instead of
        touching recycled bytes.  A non-fresh one (shard restart) keeps
        the slice's bytes; the shard rebuilds its free space from its
        replayed descriptors.
        """
        assert self._router is not None
        master = yield from self._router.client_for(shard_id)
        base, capacity = self._shard_extent(shard_id)
        reply = yield from master.call(
            "register_server", self.host_id, base, capacity,
            self.arena_mr.rkey, fresh,
            timeout=self.config.control_deadline_s,
        )
        # the shard has the last word on freshness: a server that asked
        # to keep its slice across a master restart may find its lease
        # expired during the outage, in which case it was buried and
        # must come back with a bumped fence
        if reply["fresh"]:
            self.nic.set_fence(shard_id, reply["epoch"])
        return reply

    def _rejoin_master(self, shard_id: int):
        """Reconnect to one (restarted) metadata shard (generator).

        Retries with backoff until ``SERVER_REJOIN_DEADLINE_S`` drains,
        then returns False — the caller retires this shard, though the
        NIC stays up so in-flight one-sided traffic still completes
        until the shard buries us and clients remap away.
        Re-registration is *not* fresh: the slice survives a master
        crash, and the replayed log tells the shard which bytes are live.
        """
        assert self._router is not None
        cfg = self.config
        label = (f"server-rejoin-{self.host_id}" if shard_id == 0
                 else f"server-rejoin-{self.host_id}-s{shard_id}")
        rng = derive_rng(cfg.seed, label)
        deadline = self.sim.now + SERVER_REJOIN_DEADLINE_S
        while self.alive:
            try:
                yield from self._router.redial(shard_id, deadline, rng)
            except DeadlineExceededError:
                return False
            try:
                yield from self._register(shard_id, fresh=False)
            except (RpcError, ChannelClosed, RdmaError):
                self._router.drop(shard_id)
                continue
            return True
        return False
