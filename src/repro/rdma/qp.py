"""Reliable-connected queue pairs.

The model collapses the verbs state machine (INIT/RTR/RTS) into a single
``CONNECTED`` state entered through the connection manager; the paper's
systems only ever use RC QPs, fully connected before use.

Ordering follows RC semantics: work requests on one QP execute and
complete in post order; an error transitions the QP to ``ERROR`` and
flushes everything still queued.  As on the wire, every posted request
carries a sequence number and the responder executes only the one it
expects (:meth:`QueuePair._expects`): one arriving behind a lost one
(launch fault, partition drop) is a PSN gap — not executed, it times out
like the one it followed; only a fresh QP (a re-dial) starts afresh.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.rdma.cq import CompletionQueue, WorkCompletion
from repro.rdma.types import Opcode, QpError, QpState, RdmaError, WcStatus
from repro.rdma.wr import RecvWR, SendWR

__all__ = ["QueuePair"]


class QueuePair:
    """One end of a reliable connection."""

    def __init__(
        self,
        nic,
        pd,
        send_cq: CompletionQueue,
        recv_cq: CompletionQueue,
        sq_depth: int = 128,
        rq_depth: int = 1024,
    ):
        self.nic = nic
        self.pd = pd
        self.send_cq = send_cq
        self.recv_cq = recv_cq
        self.sq_depth = sq_depth
        self.rq_depth = rq_depth
        self.qp_num = next(nic.sim.sequence("qpn", 100))
        self.state = QpState.RESET
        self.remote: Optional["QueuePair"] = None
        self.error_reason = ""
        self._rq: deque[RecvWR] = deque()
        #: SEND payloads that arrived before a receive was posted
        self._unmatched: deque[tuple] = deque()
        self._inflight = 0
        #: send WRs in post order, awaiting in-order completion delivery
        self._order: deque[SendWR] = deque()
        #: sequence number of the next request posted / next one executed
        self._next_psn = 0
        self._expected_psn = 0
        pd.qps.append(self)

    # -- connection management (driven by the CM) ---------------------------

    def _connect_to(self, remote: "QueuePair") -> None:
        self.remote = remote
        self.state = QpState.CONNECTED

    # -- posting -------------------------------------------------------------

    def post_send(self, wr: SendWR) -> None:
        """Queue one work request: a doorbell batch of one.

        Raises synchronously for caller bugs (bad WR, wrong state, full
        SQ); transport/remote failures surface asynchronously as error
        completions, exactly like the verbs contract.
        """
        self.post_send_many([wr])

    def post_send_many(self, wrs: list[SendWR]) -> None:
        """Post a list of work requests with a single doorbell.

        The whole list is admitted or rejected atomically: state and
        send-queue space are checked for the full batch before any WR
        is accepted, so a raise here means nothing reached the NIC.
        The NIC charges one doorbell for the list and then processes
        WQEs back to back — the verbs doorbell-batching idiom.
        """
        if not wrs:
            return
        if self.state is QpState.ERROR:
            raise QpError(f"QP {self.qp_num} is in error state: {self.error_reason}")
        if self.state is not QpState.CONNECTED:
            raise RdmaError(f"QP {self.qp_num} is not connected")
        if self._inflight + len(wrs) > self.sq_depth:
            raise RdmaError(
                f"send queue full: cannot admit {len(wrs)} work request(s) "
                f"({self._inflight} of {self.sq_depth} in flight); poll the CQ"
            )
        for wr in wrs:
            wr.validate()
            if wr.local_mr is not None and wr.local_mr.pd is not self.pd:
                raise RdmaError(
                    "local MR belongs to a different protection domain"
                )
        self._inflight += len(wrs)
        for wr in wrs:
            wr._wc = None
            wr._psn = self._next_psn
            self._next_psn += 1
            self._order.append(wr)
        self.nic.submit_many(self, wrs)

    def post_recv(self, wr: RecvWR) -> None:
        if self.state is QpState.ERROR:
            raise QpError(f"QP {self.qp_num} is in error state: {self.error_reason}")
        if len(self._rq) >= self.rq_depth:
            raise RdmaError(f"receive queue full ({self.rq_depth})")
        if wr.local_mr.pd is not self.pd:
            raise RdmaError("recv MR belongs to a different protection domain")
        self._rq.append(wr)
        if self._unmatched:
            arrival = self._unmatched.popleft()
            self.nic._match_recv(self, self._rq.popleft(), *arrival)

    # -- bookkeeping used by the NIC ------------------------------------------

    @property
    def inflight(self) -> int:
        return self._inflight

    def _expects(self, wr: SendWR) -> bool:
        """Responder side: is the peer's *wr* next in sequence?  Behind
        a gap it is refused, and so is everything after it."""
        if wr._psn != self._expected_psn:
            return False
        self._expected_psn += 1
        return True

    def _take_recv(self) -> Optional[RecvWR]:
        return self._rq.popleft() if self._rq else None

    def _park_arrival(self, arrival: tuple) -> None:
        self._unmatched.append(arrival)

    def _complete_send(self, wr: SendWR, wc: WorkCompletion) -> None:
        """Record one finished WR and deliver completions in post order.

        RC completes work requests in post order even when the
        underlying operations finish out of order (reads of different
        sizes, a faulted WR timing out long after its successors).
        Each completion is held until every earlier WR on the queue
        has one, then delivered — the property that makes
        tail-signaled doorbell batches sound: a delivered tail success
        proves everything posted before it succeeded too.
        """
        wr._wc = wc
        order = self._order
        while order and order[0]._wc is not None:
            head = order.popleft()
            done = head._wc
            self._inflight -= 1
            if head.signaled or not done.ok:
                self.send_cq.push(done)
            if not done.ok:
                self.set_error(done.detail or done.status.value)

    def set_error(self, reason: str) -> None:
        """Transition to ERROR and flush queued receives."""
        if self.state is QpState.ERROR:
            return
        self.state = QpState.ERROR
        self.error_reason = reason
        while self._rq:
            flushed = self._rq.popleft()
            self.recv_cq.push(
                WorkCompletion(
                    wr_id=flushed.wr_id,
                    status=WcStatus.WR_FLUSH_ERR,
                    opcode=Opcode.RECV,
                    qp=self,
                    detail=reason,
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<QP {self.qp_num} on {self.nic.host.name} "
            f"{self.state.value}>"
        )
