"""A bidirectional message channel over one RDMA queue pair.

The channel pre-registers a send buffer and a ring of receive buffers
(the control path), then moves pickled messages with SEND/RECV (the
data path).  It is the substrate for RStore's control-plane RPC.
"""

from __future__ import annotations

import pickle

from repro.rdma.cm import ConnectionManager
from repro.rdma.nic import RNic
from repro.rdma.qp import QueuePair
from repro.rdma.types import Access, Opcode, QpError, RdmaError, WcStatus
from repro.rdma.wr import RecvWR, SendWR
from repro.simnet.config import KiB
from repro.simnet.resources import Resource

__all__ = ["MSG_SIZE", "RdmaMsgChannel", "ChannelClosed", "MessageTooLarge"]

#: message size limit of every channel
MSG_SIZE = 64 * KiB
#: receive buffers each end keeps posted
CREDITS = 32


class ChannelClosed(Exception):
    """The underlying QP failed (peer death or fatal transport error)."""


class MessageTooLarge(ValueError):
    """Message exceeds the channel's buffer size."""


class RdmaMsgChannel:
    """Message framing over a connected QP.

    One process per side may call :meth:`recv` (the dispatcher); any
    number of processes may :meth:`send` (serialized by a lock).
    """

    def __init__(self, nic: RNic, qp: QueuePair):
        self.nic = nic
        self.qp = qp
        self._send_lock = Resource(nic.sim, capacity=1)
        self._send_mr = None
        self._recv_mr = None
        self.closed = False

    # -- construction --------------------------------------------------------

    def prepare(self):
        """Register buffers and post the receive ring (generator)."""
        pd = self.qp.pd
        self._send_mr = yield from self.nic.reg_mr(pd, length=MSG_SIZE)
        self._recv_mr = yield from self.nic.reg_mr(pd,
                                                   length=MSG_SIZE * CREDITS)
        for i in range(CREDITS):
            self._post_recv_slot(i)
        return self

    @classmethod
    def connect(
        cls,
        cm: ConnectionManager,
        nic: RNic,
        remote_host_id: int,
        service_id: str,
    ):
        """Full client-side setup (generator): PD, CQs, connect, buffers."""
        pd = yield from nic.alloc_pd()
        send_cq = yield from nic.create_cq()
        recv_cq = yield from nic.create_cq()
        qp = yield from cm.connect(
            nic, remote_host_id, service_id, pd, send_cq, recv_cq
        )
        channel = cls(nic, qp)
        yield from channel.prepare()
        return channel

    def _post_recv_slot(self, index: int) -> None:
        self.qp.post_recv(
            RecvWR(
                local_mr=self._recv_mr,
                local_addr=self._recv_mr.addr + index * MSG_SIZE,
                length=MSG_SIZE,
                wr_id=index,
            )
        )

    # -- messaging -------------------------------------------------------------

    def send(self, obj):
        """Send one message (generator); returns the payload size."""
        if self.closed:
            raise ChannelClosed("channel is closed")
        payload = pickle.dumps(obj)
        if len(payload) > MSG_SIZE:
            raise MessageTooLarge(
                f"message of {len(payload)} bytes exceeds channel buffer "
                f"of {MSG_SIZE}"
            )
        req = self._send_lock.try_acquire()
        if req is None:
            # another sender holds the buffer: queue FIFO behind it
            req = self._send_lock.request()
            yield req
        try:
            # Application-side marshalling into the registered buffer.
            yield from self.nic.host.cpu.copy(len(payload))
            self._send_mr.buffer.write(0, payload)
            try:
                self.qp.post_send(
                    SendWR(
                        opcode=Opcode.SEND,
                        local_mr=self._send_mr,
                        local_addr=self._send_mr.addr,
                        length=len(payload),
                    )
                )
            except QpError as exc:
                # the QP died under us (peer crash tore it down) before
                # the dispatcher could observe the flush
                self.closed = True
                raise ChannelClosed(str(exc)) from exc
            wc = yield self.qp.send_cq.next_completion()
            if not wc.ok:
                self.closed = True
                raise ChannelClosed(f"send failed: {wc.status.value} {wc.detail}")
        finally:
            self._send_lock.release(req)
        return len(payload)

    def recv(self):
        """Wait for the next inbound message (generator)."""
        if self.closed:
            raise ChannelClosed("channel is closed")
        wc = yield self.qp.recv_cq.next_completion()
        if not wc.ok:
            self.closed = True
            raise ChannelClosed(f"recv failed: {wc.status.value} {wc.detail}")
        index = wc.wr_id
        offset = index * MSG_SIZE
        payload = self._recv_mr.buffer.read(offset, wc.byte_len)
        obj = pickle.loads(payload)
        # Receive-side unmarshalling cost.
        yield from self.nic.host.cpu.copy(wc.byte_len)
        self._post_recv_slot(index)
        return obj

    def close(self) -> None:
        self.closed = True
