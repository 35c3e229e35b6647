"""A message-oriented TCP-like transport with kernel-stack costs.

Semantics are deliberately simple — reliable, ordered, message-framed
(like one application message per ``send``) — because the baselines
built on it are RPC-style.  What matters for the reproduction is the
*cost model*:

* sender: one syscall plus a user-to-kernel copy of the payload,
  charged on the sender's CPU;
* wire: payload inflated by protocol headers, moving through the same
  link/switch fabric the RDMA traffic uses;
* receiver: interrupt + stack processing plus a kernel-to-user copy,
  charged on the receiver's CPU.

Payloads are pickled Python objects, so baselines compute real results;
``wire_size`` lets scaled experiments inflate the logical size (see
``repro.rdma.wr`` for the same convention on the RDMA side).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Optional

from repro.simnet.config import us
from repro.simnet.kernel import Simulator
from repro.simnet.resources import Store
from repro.simnet.topology import Host, Network

__all__ = ["TcpModel", "TcpStack", "Socket", "TcpError"]


class TcpError(Exception):
    """Connection-level failure (refused, reset, peer dead)."""


@dataclass
class TcpModel:
    """Kernel network-stack cost parameters (10GbE/IPoIB-class host)."""

    #: per-send syscall + TX path CPU cost (s)
    send_overhead_s: float = us(4.0)
    #: per-receive interrupt + RX stack + wakeup CPU cost (s)
    recv_overhead_s: float = us(7.0)
    #: protocol overhead: headers as a fraction of payload, plus a floor
    header_fraction: float = 0.05
    header_floor_bytes: int = 66
    #: socket setup cost on top of the 1.5 RTT handshake (s)
    connect_overhead_s: float = us(150.0)


class TcpStack:
    """One host's sockets layer."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        network: Network,
        model: Optional[TcpModel] = None,
    ):
        self.sim = sim
        self.host = host
        self.network = network
        self.model = model or TcpModel()
        self.alive = True
        self._listeners: dict[int, Store] = {}
        host.services["tcp"] = self

    # -- connection management ------------------------------------------------

    def listen(self, port: int) -> "Listener":
        if port in self._listeners:
            raise TcpError(f"port {port} already bound on {self.host.name}")
        backlog = Store(self.sim)
        self._listeners[port] = backlog
        return Listener(self, port, backlog)

    def connect(self, remote_stack: "TcpStack", port: int):
        """Open a connection (generator); returns the client socket."""
        if not remote_stack.alive:
            raise TcpError(f"{remote_stack.host.name} is unreachable")
        backlog = remote_stack._listeners.get(port)
        if backlog is None:
            raise TcpError(
                f"connection refused: nothing listening on "
                f"{remote_stack.host.name}:{port}"
            )
        # SYN / SYN-ACK / ACK plus socket setup.
        rtt = 2 * self.network.one_way_base_delay
        yield self.sim.timeout(1.5 * rtt + self.model.connect_overhead_s)
        client = Socket(self, remote_stack)
        server = Socket(remote_stack, self)
        client._peer = server
        server._peer = client
        backlog.put(server)
        return client

    def kill(self) -> None:
        """Simulate host failure: the stack stops moving bytes."""
        self.alive = False


class Listener:
    """A bound port; ``accept`` yields server-side sockets."""

    def __init__(self, stack: TcpStack, port: int, backlog: Store):
        self.stack = stack
        self.port = port
        self._backlog = backlog

    def accept(self):
        """Wait for the next inbound connection (generator)."""
        sock = yield self._backlog.get()
        return sock

    def close(self) -> None:
        self.stack._listeners.pop(self.port, None)


class _Eof:
    def __repr__(self):  # pragma: no cover - debug aid
        return "<EOF>"


_EOF = _Eof()


class Socket:
    """One end of an established connection."""

    def __init__(self, stack: TcpStack, remote_stack: TcpStack):
        self.stack = stack
        self.remote_stack = remote_stack
        self._peer: Optional["Socket"] = None
        self._rx: Store = Store(stack.sim)
        self.closed = False
        #: payload bytes sent (for metrics)
        self.bytes_sent = 0

    def send(self, obj: Any, wire_size: Optional[int] = None):
        """Send one message (generator); returns its payload size."""
        if self.closed:
            raise TcpError("socket is closed")
        if not self.stack.alive:
            raise TcpError("local host is down")
        sim = self.stack.sim
        model = self.stack.model
        payload = pickle.dumps(obj)
        size = wire_size if wire_size is not None else len(payload)
        self.bytes_sent += size

        # Sender-side CPU: syscall plus user->kernel copy.
        yield from self.stack.host.cpu.run(model.send_overhead_s)
        yield from self.stack.host.cpu.copy(size)

        wire = int(size * model.header_fraction) + model.header_floor_bytes + size
        delivered = self.stack.network.transmit_message(
            self.stack.host, self.remote_stack.host, wire
        )
        peer = self._peer
        assert peer is not None

        def on_delivery(_event):
            if not self.remote_stack.alive or peer.closed:
                return  # bytes vanish into a dead or closed endpoint
            sim.process(peer._receive(obj, size))

        delivered.add_callback(on_delivery)
        return size

    def _receive(self, obj: Any, size: int):
        model = self.stack.model
        yield from self.stack.host.cpu.run(model.recv_overhead_s)
        yield from self.stack.host.cpu.copy(size)
        self._rx.put((obj, size))

    def recv(self):
        """Wait for the next message (generator); returns the object.

        Returns ``None`` once the peer has closed and the queue drained.
        """
        item = yield self._rx.get()
        if item is _EOF:
            return None
        obj, _size = item
        return obj

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self._peer is not None and not self._peer.closed:
            self._peer._rx.put(_EOF)
