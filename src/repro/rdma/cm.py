"""Connection manager (the rdma_cm analogue).

Connection establishment is the most expensive control-path operation:
address/route resolution, QP creation on both sides, and a 1.5-RTT
REQ/REP/RTU handshake.  RStore performs it once per (client, server)
pair at map time and never on the data path.

The manager itself is a cluster-wide registry, standing in for the
out-of-band channel (IP/ARP/SA) a real fabric uses for rendezvous; all
*costs* are still charged to the participating hosts and links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.rdma.cq import CompletionQueue
from repro.rdma.nic import RNic
from repro.rdma.pd import ProtectionDomain
from repro.rdma.qp import QueuePair
from repro.rdma.types import RdmaError
from repro.simnet.kernel import Simulator
from repro.simnet.topology import Network

__all__ = ["ConnectionManager", "ConnectError", "Listener"]


class ConnectError(RdmaError):
    """Connection establishment failed (no listener, or peer dead)."""


@dataclass
class Listener:
    """A passive endpoint accepting connections for one service id."""

    nic: RNic
    service_id: str
    pd: ProtectionDomain
    send_cq: CompletionQueue
    recv_cq: CompletionQueue
    #: invoked with each newly connected server-side QP
    on_connect: Optional[Callable[[QueuePair], None]] = None
    sq_depth: int = 128
    rq_depth: int = 1024


class ConnectionManager:
    """Cluster-wide rendezvous: listeners by (host, service id)."""

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        self._listeners: dict[tuple[int, str], Listener] = {}
        #: established connections, for metrics
        self.connections = 0

    def listen(
        self,
        nic: RNic,
        service_id: str,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        on_connect: Optional[Callable[[QueuePair], None]] = None,
        sq_depth: int = 128,
        rq_depth: int = 1024,
    ) -> Listener:
        """Register a passive endpoint on *nic* under *service_id*."""
        key = (nic.host.host_id, service_id)
        if key in self._listeners:
            raise RdmaError(f"{service_id!r} already listening on {nic.host.name}")
        listener = Listener(
            nic=nic,
            service_id=service_id,
            pd=pd,
            send_cq=send_cq,
            recv_cq=send_cq if recv_cq is None else recv_cq,
            on_connect=on_connect,
            sq_depth=sq_depth,
            rq_depth=rq_depth,
        )
        self._listeners[key] = listener
        return listener

    def stop_listening(self, nic: RNic, service_id: str) -> None:
        self._listeners.pop((nic.host.host_id, service_id), None)

    def connect(
        self,
        nic: RNic,
        remote_host_id: int,
        service_id: str,
        pd: ProtectionDomain,
        send_cq: CompletionQueue,
        recv_cq: Optional[CompletionQueue] = None,
        sq_depth: int = 128,
        rq_depth: int = 1024,
    ):
        """Connect to a listener (generator); returns the active-side QP.

        Charges the full handshake: resolution, QP creation on both
        sides, REQ/REP/RTU control messages across the fabric.
        """
        model = nic.model
        span = nic.obs.tracer.span("control.cm.connect", kind="control",
                                   src=nic.host.host_id,
                                   dst=remote_host_id, service=service_id)
        # Address & route resolution happen before any packet is sent.
        yield self.sim.timeout(model.cm_setup_s / 2)
        listener = self._listeners.get((remote_host_id, service_id))
        if listener is None:
            span.finish(ok=False)
            raise ConnectError(
                f"no listener for service {service_id!r} on host {remote_host_id}"
            )
        server_nic = listener.nic
        if not server_nic.alive or not nic.alive:
            span.finish(ok=False)
            raise ConnectError(f"peer host {remote_host_id} is unreachable")

        client_qp = yield from nic.create_qp(
            pd, send_cq, recv_cq, sq_depth=sq_depth, rq_depth=rq_depth
        )
        # REQ -> server
        yield from self._handshake(nic, server_nic, span)
        server_qp = yield from server_nic.create_qp(
            listener.pd,
            listener.send_cq,
            listener.recv_cq,
            sq_depth=listener.sq_depth,
            rq_depth=listener.rq_depth,
        )
        # The server finishes its accept-side setup (e.g. posting the
        # receive ring) *before* acknowledging — real rdma_cm servers
        # call accept only once resources are in place.  on_connect may
        # be a plain callable or a generator function; generators are
        # awaited as part of the handshake.
        if listener.on_connect is not None:
            result = listener.on_connect(server_qp)
            if hasattr(result, "throw"):
                yield from result
        # REP -> client
        yield from self._handshake(server_nic, nic, span)
        # RTU -> server
        yield from self._handshake(nic, server_nic, span)
        # INIT->RTR->RTS transitions on both ends
        yield self.sim.timeout(model.cm_setup_s / 2)

        client_qp._connect_to(server_qp)
        server_qp._connect_to(client_qp)
        self.connections += 1
        span.finish(ok=True)
        return client_qp

    def _handshake(self, src: RNic, dst: RNic, span):
        """One handshake control message, bounded by the CM's retry
        timer (generator).

        A partitioned fabric eats control messages silently; real
        rdma_cm surfaces that as a timeout on the active side.  Without
        partitions armed the timer never fires first, so the fast path
        is unchanged.
        """
        delivered = self._control(src, dst)
        if self.network.fault_filter is None:
            yield delivered
            return
        timer = self.sim.timeout(src.model.retry_timeout_s)
        yield self.sim.any_of([delivered, timer])
        self.sim.cancel(timer)  # a no-op when it is what fired
        if not delivered.triggered:
            span.finish(ok=False)
            raise ConnectError(
                f"handshake {src.host.name} -> {dst.host.name} timed out "
                "(partitioned?)"
            )

    def _control(self, src: RNic, dst: RNic):
        """One handshake control message across the fabric (event)."""
        return self.network.transmit_message(
            src.host,
            dst.host,
            src.model.control_message_bytes,
            header_bytes=src.model.frame_header_bytes,
        )
