"""The RDMA NIC: control-path verbs and the offloaded data path.

Control-path methods (``alloc_pd``, ``reg_mr``, ``create_qp``, …) are
generators that charge realistic setup latencies — this is the "resource
setup" half of RDMA's separation philosophy.

The data path is fully offloaded: once a work request is posted, the
NIC engine model (an analytic busy-time chain, like a link channel)
processes WQEs in order, moves frames across the fabric, executes
one-sided operations against the *remote NIC's* memory table without
ever touching the remote CPU model, and raises completions.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs import obs_for
from repro.rdma.cq import CompletionQueue, WorkCompletion
from repro.rdma.device import NicModel
from repro.rdma.memory import Buffer, HostMemory, MemoryRegion, Payload
from repro.rdma.pd import ProtectionDomain
from repro.rdma.qp import QueuePair
from repro.rdma.types import Access, Opcode, QpState, RdmaError, WcStatus
from repro.rdma.wr import RecvWR, SendWR
from repro.sanitize import rsan_for
from repro.simnet.kernel import Simulator
from repro.simnet.topology import Host, Network

__all__ = ["RNic"]

#: an RC responder executes nothing past a lost request
_PSN_GAP = "request arrived behind a lost one (PSN gap): not executed"


class RNic:
    """One host's RDMA NIC."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        network: Network,
        model: Optional[NicModel] = None,
    ):
        self.sim = sim
        self.host = host
        self.network = network
        self.model = model or NicModel()
        self.memory = HostMemory(host.host_id)
        self.alive = True
        #: epoch fences, one per control-plane shard (shards recover
        #: independently): a one-sided WR whose ``shard`` stamp names a
        #: fence and whose epoch is below it is NAK'd ("stale epoch")
        #: instead of touching memory.  The memory server sets them when
        #: it re-registers with a recycled arena.
        self._fences: dict[int, int] = {}
        #: optional fault-injection hook: ``hook(host_id, wr) -> str``
        #: returning a non-empty detail fails the WR with RETRY_EXC_ERR
        #: *before* it leaves this NIC (the remote side never sees it)
        self.fault_hook: Optional[Callable[[int, SendWR], str]] = None
        #: like ``fault_hook`` but consulted when a *successful*
        #: completion is about to be raised: the remote side already
        #: applied the op, only the acknowledgement is lost.  This is
        #: the ambiguity that makes atomics non-replayable.
        self.ack_fault_hook: Optional[Callable[[int, SendWR], str]] = None
        self._engine_busy_until = 0.0
        #: rkey -> MemoryRegion, the NIC's translation/permission table
        self.mr_by_rkey: dict[int, MemoryRegion] = {}
        # -- observability: registry instruments labelled by host, read
        # back through the properties below
        self.obs = obs_for(sim)
        self.rsan = rsan_for(sim)
        _m = self.obs.metrics
        _host = host.host_id
        self._m_ops_posted = _m.counter("rnic.ops_posted", host=_host)
        self._m_ops_completed = _m.counter("rnic.ops_completed", host=_host)
        self._m_bytes_sent = _m.counter("rnic.bytes_sent", host=_host)
        self._m_doorbells = _m.counter("rnic.doorbells_rung", host=_host)
        host.services["rnic"] = self

    # -- epoch fencing --------------------------------------------------------

    def set_fence(self, shard_id: int, epoch: int) -> None:
        """Fence one shard's era: one-sided WRs carrying that shard's
        stamp with an older epoch NAK instead of touching memory."""
        self._fences[shard_id] = epoch

    def fence_for(self, shard_id: int) -> int:
        return self._fences.get(shard_id, 0)

    def fenced(self, shard_id: int, epoch: int) -> bool:
        """Would a request stamped (*shard_id*, *epoch*) be NAK'd stale?

        The same test the WR path applies, exposed for the server-op
        executor so composite RPC-borne ops honour the identical fence.
        """
        return epoch < self.fence_for(shard_id)

    # -- metrics (registry-backed; see repro.obs) -----------------------------

    @property
    def ops_posted(self) -> int:
        """Work requests accepted by this NIC's engine."""
        return self._m_ops_posted.value

    @property
    def doorbells_rung(self) -> int:
        """One per ``submit_many`` *list* (a single ``post_send`` is a
        list of one) — ``doorbells_rung < ops_posted`` is the proof
        that doorbell batching is happening."""
        return self._m_doorbells.value

    # ------------------------------------------------------------------
    # control path (generators charging setup time)
    # ------------------------------------------------------------------

    def alloc_pd(self):
        """Allocate a protection domain (generator)."""
        span = self.obs.tracer.span("control.nic.alloc_pd", kind="control",
                                    host=self.host.host_id)
        yield self.sim.timeout(self.model.alloc_pd_s)
        span.finish()
        return ProtectionDomain(self)

    def create_cq(self, depth: int = 4096):
        """Create a completion queue (generator)."""
        span = self.obs.tracer.span("control.nic.create_cq", kind="control",
                                    host=self.host.host_id)
        yield self.sim.timeout(self.model.create_cq_s)
        span.finish()
        return CompletionQueue(self.sim, depth)

    def reg_mr(
        self,
        pd: ProtectionDomain,
        length: Optional[int] = None,
        buffer: Optional[Buffer] = None,
        access: Access = Access.LOCAL_WRITE,
    ):
        """Register a memory region (generator).

        Either pass an existing ``buffer`` or a ``length`` to allocate a
        fresh one.  Registration cost grows with the page count — the
        dominant control-path cost the paper's design amortises by
        registering at allocation/mapping time, never per IO.
        """
        if pd.nic is not self:
            raise RdmaError("PD belongs to a different device")
        if buffer is None:
            if length is None:
                raise RdmaError("reg_mr needs a buffer or a length")
            buffer = self.memory.alloc(length)
        elif buffer.host_id != self.host.host_id:
            raise RdmaError("cannot register another host's memory")
        mr = MemoryRegion(buffer, access, pd=pd)
        keys = self.sim.sequence("mr-key")
        mr.lkey, mr.rkey = next(keys), next(keys)
        span = self.obs.tracer.span("control.nic.reg_mr", kind="control",
                                    host=self.host.host_id, pages=mr.pages)
        cost = self.model.reg_mr_base_s + mr.pages * self.model.reg_mr_per_page_s
        yield self.sim.timeout(cost)
        span.finish()
        self.mr_by_rkey[mr.rkey] = mr
        pd.regions.append(mr)
        return mr

    def create_qp(
        self,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        sq_depth: int = 128,
        rq_depth: int = 1024,
    ):
        """Create an RC queue pair (generator)."""
        if pd.nic is not self:
            raise RdmaError("PD belongs to a different device")
        span = self.obs.tracer.span("control.nic.create_qp", kind="control",
                                    host=self.host.host_id)
        yield self.sim.timeout(self.model.create_qp_s)
        span.finish()
        # NB: "recv_cq or send_cq" would be wrong here — an empty
        # CompletionQueue is falsy (it has __len__).
        return QueuePair(
            self,
            pd,
            send_cq,
            send_cq if recv_cq is None else recv_cq,
            sq_depth=sq_depth,
            rq_depth=rq_depth,
        )

    # ------------------------------------------------------------------
    # data path (event-driven, no generators: the NIC is offloaded)
    # ------------------------------------------------------------------

    def submit_many(self, qp: QueuePair, wrs: list[SendWR]) -> None:
        """Accept a doorbell batch; called by
        :meth:`QueuePair.post_send_many`.

        The MMIO doorbell is paid once for the whole list; the engine
        then processes the WQEs back to back, so per-op cost collapses
        to ``wqe_processing_s`` — the mechanism behind the batched
        small-op throughput numbers (E13).
        """
        self._m_ops_posted.inc(len(wrs))
        self._m_doorbells.inc()
        model = self.model
        now = self.sim.now
        call_later = self.sim.call_later
        tracing = self.obs.tracer.enabled
        rsan = self.rsan if self.rsan.enabled else None
        processing = model.wqe_processing_s
        start = max(now + model.doorbell_s, self._engine_busy_until)
        for wr in wrs:
            wr._wc_raised = False
            if tracing:
                wr._obs_posted = now
            if rsan is not None:
                rsan.on_post(wr, self.host.host_id)
            start += processing
            call_later(start - now, self._launch, qp, wr)
        self._engine_busy_until = start

    def kill(self) -> None:
        """Simulate host failure: the NIC stops responding entirely."""
        self.alive = False

    # -- internal helpers ----------------------------------------------------
    #
    # Every stage below runs on the *requesting* NIC (``self``) and is a
    # bound method scheduled with ``sim.call_later`` or handed to the
    # fabric as a delivery callback, its state travelling as arguments:
    # an op in flight is a chain of bare timers, not of closures.

    def _launch(self, qp: QueuePair, wr: SendWR) -> None:
        if not self.alive:
            return  # a dead host sends nothing and nobody is listening
        tracer = self.obs.tracer
        if tracer.enabled:
            if wr._obs_posted is not None:
                tracer.record("data.qp.post", wr._obs_posted,
                              host=self.host.host_id, op=wr.opcode.name)
            wr._obs_launched = self.sim.now
        if self.fault_hook is not None:
            detail = self.fault_hook(self.host.host_id, wr)
            if detail:
                # injected wire fault: the op times out and errors the QP,
                # exactly like losing the peer mid-flight
                self._retry_failure(qp, wr, detail)
                return
        if self.network.fault_filter is not None:
            # partitions are armed: any leg of this op (request, remote
            # ack, read response) may silently vanish in the fabric, so
            # model the RC transport retry timer — if no completion has
            # been raised by then, the op fails with RETRY_EXC_ERR.
            # First completion wins (see the guard in ``_complete``),
            # and a real outcome withdraws the watchdog.
            wr._watchdog = self._retry_failure(
                qp, wr, "transport retries exhausted (partitioned?)")
        remote_qp = qp.remote
        assert remote_qp is not None, "connected QP lost its peer"
        opcode = wr.opcode
        if opcode is Opcode.RDMA_READ:
            self._send_control(remote_qp.nic, self._read_arrived,
                               qp, wr, remote_qp.nic)
        elif opcode is Opcode.RDMA_WRITE:
            self._transmit(remote_qp.nic, wr.bytes_on_wire,
                           self._write_arrived, qp, wr, remote_qp.nic,
                           self._snapshot_payload(wr))
        elif opcode in (Opcode.ATOMIC_CAS, Opcode.ATOMIC_FAA):
            self._send_control(remote_qp.nic, self._atomic_arrived,
                               qp, wr, remote_qp.nic)
        elif opcode is Opcode.SEND:
            self._transmit(remote_qp.nic, wr.bytes_on_wire,
                           self._send_arrived, qp, wr, remote_qp,
                           self._snapshot_payload(wr))
        else:  # pragma: no cover - guarded by WR validation
            raise RdmaError(f"unsupported opcode {opcode}")

    def _snapshot_payload(self, wr: SendWR) -> Payload:
        """The local payload as of launch (send-side snapshot); the
        receiver lands it."""
        if wr.length == 0 or wr.local_mr is None:
            return b""
        offset = wr.local_mr.offset_of(wr.local_addr)
        return wr.local_mr.buffer.snapshot(offset, wr.length)

    def _transmit(self, dst: "RNic", nbytes: int,
                  on_delivered: Callable[..., None], *args) -> None:
        self._m_bytes_sent.inc(nbytes)
        self.network.transmit_message(
            self.host,
            dst.host,
            nbytes,
            header_bytes=self.model.frame_header_bytes,
            on_delivered=on_delivered,
            args=args,
        )

    def _send_control(self, dst: "RNic",
                      on_delivered: Callable[..., None], *args) -> None:
        self._transmit(dst, self.model.control_message_bytes,
                       on_delivered, *args)

    def _complete(
        self,
        qp: QueuePair,
        wr: SendWR,
        status: WcStatus,
        byte_len: int = 0,
        atomic_result: Optional[int] = None,
        detail: str = "",
    ) -> None:
        if wr._wc_raised:
            # the partition watchdog and the real outcome can both try
            # to complete one WR; whichever fires first is the truth
            return
        wr._wc_raised = True
        watchdog = wr._watchdog
        if watchdog is not None:
            wr._watchdog = None
            self.sim.cancel(watchdog)  # a no-op when it is what fired
        if status is WcStatus.SUCCESS and self.ack_fault_hook is not None:
            injected = self.ack_fault_hook(self.host.host_id, wr)
            if injected:
                # the op ran remotely; only its acknowledgement is lost
                status = WcStatus.RETRY_EXC_ERR
                byte_len = 0
                atomic_result = None
                detail = injected
        self._m_ops_completed.inc()
        tracer = self.obs.tracer
        if tracer.enabled and wr._obs_launched is not None:
            tracer.record("data.nic.wire", wr._obs_launched,
                          host=self.host.host_id, op=wr.opcode.name,
                          status=status.value, nbytes=byte_len)
        wc = WorkCompletion(
            wr_id=wr.wr_id,
            status=status,
            opcode=wr.opcode,
            byte_len=byte_len,
            qp=qp,
            atomic_result=atomic_result,
            detail=detail,
        )
        if tracer.enabled:
            # consumed by the client pipeline's data.cq.complete span
            wc._obs_raised = self.sim.now
        qp._complete_send(wr, wc)

    def _acked(self, qp: QueuePair, wr: SendWR, status: WcStatus,
               byte_len: int = 0, atomic_result: Optional[int] = None,
               detail: str = "") -> None:
        """The responder's ack (or NAK) reached this NIC: raise the
        completion once the CQE is written."""
        self.sim.call_later(self.model.completion_s, self._complete,
                            qp, wr, status, byte_len, atomic_result, detail)

    def _retry_failure(self, qp: QueuePair, wr: SendWR, detail: str) -> tuple:
        """Complete with RETRY_EXC after the transport retry timeout;
        returns the timer's handle."""
        return self.sim.call_later(self.model.retry_timeout_s, self._complete,
                                   qp, wr, WcStatus.RETRY_EXC_ERR, 0, None,
                                   detail)

    def _nak(self, qp: QueuePair, wr: SendWR, remote: "RNic", detail: str) -> None:
        """Remote-side rejection: error response after a round trip."""
        remote._send_control(self, self._acked, qp, wr,
                             WcStatus.REM_ACCESS_ERR, 0, None, detail)

    def _admit(self, qp: QueuePair, wr: SendWR, remote: "RNic",
               need: Access) -> Optional[MemoryRegion]:
        """A one-sided request reached *remote*: the region it may touch,
        or ``None`` once its failure (dead peer, stale epoch, bad rkey,
        bounds, permission) is on its way back."""
        if not remote.alive:
            self._retry_failure(qp, wr, "remote host unreachable")
            return None
        if not qp.remote._expects(wr):
            self._retry_failure(qp, wr, _PSN_GAP)
            return None
        epoch = wr.epoch
        if epoch is not None:
            fence = remote.fence_for(wr.shard)
            if epoch < fence:
                self._nak(qp, wr, remote,
                          f"stale epoch {epoch} fenced (server is at epoch "
                          f"{fence})")
                return None
        mr = remote.mr_by_rkey.get(wr.rkey)
        if mr is None:
            self._nak(qp, wr, remote, f"no memory region with rkey {wr.rkey}")
            return None
        err = mr.check_remote(wr.remote_addr, wr.length, need)
        if err:
            self._nak(qp, wr, remote, err)
            return None
        return mr

    # -- RDMA WRITE ------------------------------------------------------------

    def _write_arrived(self, qp: QueuePair, wr: SendWR, remote: "RNic",
                       payload: Payload) -> None:
        mr = self._admit(qp, wr, remote, Access.REMOTE_WRITE)
        if mr is not None:
            self.sim.call_later(remote.model.remote_dma_s, self._write_dma,
                                qp, wr, remote, mr, payload)

    def _write_dma(self, qp: QueuePair, wr: SendWR, remote: "RNic",
                   mr: MemoryRegion, payload: Payload) -> None:
        mr.buffer.write(mr.offset_of(wr.remote_addr), payload)
        if remote.rsan.enabled:
            remote.rsan.on_apply(remote.host.host_id, wr.remote_addr,
                                 wr.length, "write", wr)
        remote._send_control(self, self._acked, qp, wr,
                             WcStatus.SUCCESS, wr.length)

    # -- RDMA READ -------------------------------------------------------------

    def _read_arrived(self, qp: QueuePair, wr: SendWR, remote: "RNic") -> None:
        mr = self._admit(qp, wr, remote, Access.REMOTE_READ)
        if mr is not None:
            self.sim.call_later(remote.model.remote_dma_s, self._read_dma,
                                qp, wr, remote, mr)

    def _read_dma(self, qp: QueuePair, wr: SendWR, remote: "RNic",
                  mr: MemoryRegion) -> None:
        # the bytes as of this DMA instant; they land when the response
        # arrives, whole blocks adopted and only block edges copied
        data = mr.buffer.snapshot(mr.offset_of(wr.remote_addr), wr.length)
        if remote.rsan.enabled:
            remote.rsan.on_apply(remote.host.host_id, wr.remote_addr,
                                 wr.length, "read", wr)
        remote._transmit(self, wr.bytes_on_wire, self._read_response_arrived,
                         qp, wr, data)

    def _read_response_arrived(self, qp: QueuePair, wr: SendWR,
                               data: Payload) -> None:
        if wr.local_mr is not None and wr.length:
            wr.local_mr.buffer.write(
                wr.local_mr.offset_of(wr.local_addr), data
            )
        self._acked(qp, wr, WcStatus.SUCCESS, wr.length)

    # -- atomics -----------------------------------------------------------------

    def _atomic_arrived(self, qp: QueuePair, wr: SendWR, remote: "RNic") -> None:
        mr = self._admit(qp, wr, remote, Access.REMOTE_ATOMIC)
        if mr is None:
            return
        if wr.remote_addr % 8 != 0:
            self._nak(qp, wr, remote, "atomic target not 8-byte aligned")
            return
        self.sim.call_later(
            remote.model.remote_dma_s + remote.model.atomic_extra_s,
            self._atomic_dma, qp, wr, remote, mr,
        )

    def _atomic_dma(self, qp: QueuePair, wr: SendWR, remote: "RNic",
                    mr: MemoryRegion) -> None:
        offset = mr.offset_of(wr.remote_addr)
        old = int.from_bytes(mr.buffer.read(offset, 8), "little")
        if wr.opcode is Opcode.ATOMIC_CAS:
            if old == wr.compare:
                mr.buffer.write(
                    offset, wr.swap.to_bytes(8, "little", signed=False)
                )
        else:  # fetch-and-add, wrapping at 2^64 like hardware
            new = (old + wr.compare) % (1 << 64)
            mr.buffer.write(offset, new.to_bytes(8, "little"))
        if wr.local_mr is not None:
            wr.local_mr.buffer.write(
                wr.local_mr.offset_of(wr.local_addr),
                old.to_bytes(8, "little"),
            )
        if remote.rsan.enabled:
            remote.rsan.on_apply(remote.host.host_id, wr.remote_addr,
                                 8, "atomic", wr)
        remote._send_control(self, self._acked, qp, wr,
                             WcStatus.SUCCESS, 8, old)

    # -- SEND / RECV ---------------------------------------------------------------

    def _send_arrived(self, qp: QueuePair, wr: SendWR, remote_qp: QueuePair,
                      payload: Payload) -> None:
        remote = remote_qp.nic
        if not remote.alive:
            self._retry_failure(qp, wr, "remote host unreachable")
            return
        if not remote_qp._expects(wr):
            self._retry_failure(qp, wr, _PSN_GAP)
            return
        if remote_qp.state is not QpState.CONNECTED:
            self._nak(qp, wr, remote, "remote QP not in connected state")
            return
        rwr = remote_qp._take_recv()
        if rwr is None:
            # RC would RNR-retry; we park the message until a receive
            # is posted, at which point matching resumes.
            remote_qp._park_arrival((payload, qp, wr))
            return
        remote._match_recv(remote_qp, rwr, payload, qp, wr)

    def _match_recv(
        self,
        dst_qp: QueuePair,
        rwr: RecvWR,
        payload: Payload,
        src_qp: QueuePair,
        swr: SendWR,
    ) -> None:
        """Consume a posted receive for an arrived SEND (runs on the
        receiver)."""
        src_nic = src_qp.nic
        if len(payload) > rwr.length:
            dst_qp.recv_cq.push(
                WorkCompletion(
                    wr_id=rwr.wr_id,
                    status=WcStatus.LOC_LEN_ERR,
                    opcode=Opcode.RECV,
                    byte_len=len(payload),
                    qp=dst_qp,
                    detail=f"payload {len(payload)} exceeds recv buffer {rwr.length}",
                )
            )
            dst_qp.set_error("receive buffer too small")
            self._send_control(
                src_nic, src_nic._acked, src_qp, swr,
                WcStatus.REM_INV_REQ_ERR, 0, None,
                "remote receive buffer too small",
            )
            return
        rwr.local_mr.buffer.write(rwr.local_mr.offset_of(rwr.local_addr), payload)
        self.sim.call_later(
            self.model.completion_s,
            dst_qp.recv_cq.push,
            WorkCompletion(
                wr_id=rwr.wr_id,
                status=WcStatus.SUCCESS,
                opcode=Opcode.RECV,
                byte_len=len(payload),
                qp=dst_qp,
            ),
        )
        self._send_control(src_nic, src_nic._acked, src_qp, swr,
                           WcStatus.SUCCESS, swr.length)
