"""RPC endpoints over the RDMA message channel and over TCP sockets.

Handlers are generator functions registered by name::

    def lookup(key):
        yield from host.cpu.run(us(1))
        return table[key]

    server.register("lookup", lookup)

Clients call them with ``result = yield from client.call("lookup", key)``.
Remote exceptions re-raise locally as :class:`RpcRemoteError`.

The endpoint is written once over a *channel* — ``send(obj)`` /
``recv()``, both raising :class:`ChannelClosed` once the connection is
gone — and each transport adds only how it listens and connects:
:class:`RdmaMsgChannel` is such a channel, a TCP socket becomes one
through :class:`_SocketChannel`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.net.tcp import TcpError
from repro.rdma.cm import ConnectionManager
from repro.rdma.nic import RNic
from repro.rdma.qp import QueuePair
from repro.rpc.channel import (
    MSG_SIZE,
    ChannelClosed,
    MessageTooLarge,
    RdmaMsgChannel,
)
from repro.rpc.message import RpcRequest, RpcResponse
from repro.simnet.config import us
from repro.simnet.kernel import Event, Simulator

__all__ = [
    "RpcError",
    "RpcRemoteError",
    "RpcTimeout",
    "RpcServer",
    "RpcClient",
    "RpcClientPool",
    "TcpRpcServer",
    "TcpRpcClient",
]

#: CPU time a server spends dispatching one request (lookup + scheduling)
DISPATCH_CPU_S = us(1.0)


class RpcError(Exception):
    """Local RPC failure (connection lost, protocol violation)."""


class RpcTimeout(RpcError):
    """The call did not complete within its deadline."""


class RpcRemoteError(RpcError):
    """The handler raised on the remote side."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.remote_message = message


# ---------------------------------------------------------------------------
# the endpoint, over any channel
# ---------------------------------------------------------------------------


class _Service:
    """The server half: the method table, one serve loop per
    connection, one handler process per request, charged on *cpu*."""

    def __init__(self, sim: Simulator, cpu, service_id: str):
        self.sim = sim
        self.service_id = service_id
        self.requests_served = 0
        self._cpu = cpu
        self._handlers: dict[str, Callable] = {}

    def register(self, method: str, handler: Callable) -> None:
        """Register a generator function under *method*."""
        if method in self._handlers:
            raise ValueError(f"handler {method!r} already registered")
        self._handlers[method] = handler

    def dispatch(self, request: RpcRequest):
        """Run the handler (generator); returns an RpcResponse."""
        handler = self._handlers.get(request.method)
        if handler is None:
            return RpcResponse(
                call_id=request.call_id,
                error=f"no such method {request.method!r}",
                error_type="LookupError",
            )
        try:
            result = yield from handler(*request.args)
        except Exception as exc:  # noqa: BLE001 - faithfully forwarded
            return RpcResponse(
                call_id=request.call_id,
                error=str(exc),
                error_type=type(exc).__name__,
            )
        return RpcResponse(call_id=request.call_id, result=result)

    def _serve_on(self, channel) -> None:
        """Start the serve loop of one accepted connection."""
        self.sim.process(self._serve(channel),
                         name=f"rpc-serve-{self.service_id}")

    def _serve(self, channel):
        while True:
            try:
                request = yield from channel.recv()
            except ChannelClosed:
                return
            self.sim.process(self._handle(channel, request))

    def _handle(self, channel, request: RpcRequest):
        yield from self._cpu.run(DISPATCH_CPU_S)
        response = yield from self.dispatch(request)
        self.requests_served += 1
        try:
            try:
                yield from channel.send(response)
            except MessageTooLarge as exc:
                # the handler ran but its reply cannot ride the channel:
                # the caller must still hear, as a remote error
                yield from channel.send(RpcResponse(
                    call_id=request.call_id,
                    error=str(exc),
                    error_type=type(exc).__name__,
                ))
        except ChannelClosed:
            pass  # client died mid-call; nothing to deliver the reply to


class _Caller:
    """The client half: call ids, the pending table and the dispatcher
    that resolves it from whatever the attached channel delivers."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._channel = None
        self._pending: dict[int, Event] = {}
        self._call_ids = itertools.count(1)
        self.calls_made = 0

    def _attach(self, channel):
        """Adopt the connected *channel* and start dispatching."""
        self._channel = channel
        self.sim.process(self._dispatch_responses(), name="rpc-client-dispatch")
        return self

    def _dispatch_responses(self):
        while True:
            try:
                response = yield from self._channel.recv()
            except ChannelClosed as exc:
                for future in self._pending.values():
                    if not future.triggered:
                        # the owner may never claim this failure: under a
                        # partition it can still be parked inside send()
                        # when the peer dies, and learns of the death from
                        # send itself — defuse so the orphaned failure
                        # cannot crash the kernel
                        future.defused = True
                        future.fail(RpcError(str(exc)))
                self._pending.clear()
                return
            future = self._pending.pop(response.call_id, None)
            if future is not None and not future.triggered:
                future.succeed(response)

    def call(self, method: str, *args, timeout: Optional[float] = None):
        """Invoke a remote method (generator); returns its result."""
        if self._channel is None:
            raise RpcError("client is not connected")
        call_id = next(self._call_ids)
        request = RpcRequest(call_id=call_id, method=method, args=args)
        future = self.sim.event()
        self._pending[call_id] = future
        self.calls_made += 1
        try:
            yield from self._channel.send(request)
        except ChannelClosed as exc:
            # Nobody will ever wait on the future; drop it before the
            # dispatcher fails it into the void.
            self._pending.pop(call_id, None)
            raise RpcError("connection lost while sending the request") from exc
        if timeout is None:
            response = yield future
        else:
            deadline = self.sim.timeout(timeout)
            try:
                yield self.sim.any_of([future, deadline])
            finally:
                # a settled call's deadline would hold the reply until
                # it fired; when it is what fired this is a no-op
                self.sim.cancel(deadline)
            if not future.processed:
                self._pending.pop(call_id, None)
                raise RpcTimeout(f"{method} did not complete in {timeout}s")
            response = future.value
        if response.error is not None:
            raise RpcRemoteError(response.error_type, response.error)
        return response.result


# ---------------------------------------------------------------------------
# RDMA transport
# ---------------------------------------------------------------------------


class RpcServer(_Service):
    """RPC service over RDMA SEND/RECV (the control-plane transport)."""

    def __init__(self, sim: Simulator, nic: RNic, cm: ConnectionManager,
                 service_id: str, msg_size: int = MSG_SIZE):
        super().__init__(sim, nic.host.cpu, service_id)
        self.nic = nic
        self.cm = cm
        self.msg_size = msg_size
        #: every accepted connection, so :meth:`stop` can tear them down
        self._accepted: list[RdmaMsgChannel] = []
        self._stopped = False

    def start(self):
        """Begin listening (generator)."""
        pd = yield from self.nic.alloc_pd()
        # Listener-level CQs are placeholders; each accepted connection
        # gets dedicated CQs so its dispatcher can wait undisturbed.
        cq = yield from self.nic.create_cq()
        self.cm.listen(
            self.nic,
            self.service_id,
            pd,
            cq,
            # a generator: the CM completes it before acknowledging REP
            on_connect=self._accept,
        )
        return self

    def stop(self, reason: str = "server stopped") -> None:
        """Tear the service down (fail-stop).

        Stops listening and errors both ends of every accepted QP: the
        local flush ends our ``_serve`` loops, and the remote flush
        fails every peer's pending recv so its dispatcher observes
        channel death instead of waiting forever.
        """
        if self._stopped:
            return
        self._stopped = True
        self.cm.stop_listening(self.nic, self.service_id)
        for channel in self._accepted:
            channel.close()
            channel.qp.set_error(reason)
            if channel.qp.remote is not None:
                channel.qp.remote.set_error(reason)
        self._accepted.clear()

    def _accept(self, qp: QueuePair):
        qp.send_cq = yield from self.nic.create_cq()
        qp.recv_cq = yield from self.nic.create_cq()
        channel = RdmaMsgChannel(self.nic, qp, msg_size=self.msg_size)
        yield from channel.prepare()
        self._accepted.append(channel)
        self._serve_on(channel)


class RpcClient(_Caller):
    """Client half of :class:`RpcServer`."""

    def __init__(self, sim: Simulator, nic: RNic, cm: ConnectionManager):
        super().__init__(sim)
        self.nic = nic
        self.cm = cm

    def connect(self, remote_host_id: int, service_id: str,
                msg_size: int = MSG_SIZE):
        """Establish the connection (generator)."""
        return self._attach((yield from RdmaMsgChannel.connect(
            self.cm, self.nic, remote_host_id, service_id, msg_size=msg_size
        )))

    @property
    def connected(self) -> bool:
        return self._channel is not None and not self._channel.closed

    def abort(self, reason: str = "client aborted") -> None:
        """Tear the connection down without a goodbye (fail-stop).

        Errors both QP ends so the peer's ``_serve`` loop sees channel
        death, and our own dispatcher fails every pending call.
        """
        if self._channel is None:
            return
        self._channel.close()
        self._channel.qp.set_error(reason)
        if self._channel.qp.remote is not None:
            self._channel.qp.remote.set_error(reason)


class RpcClientPool:
    """Connected :class:`RpcClient` per key, each dialled single-flight.

    Concurrent first uses of one key share one dial: the first caller
    connects, later ones wait on its event.  A failed dial is forgotten,
    so the next call retries.
    """

    def __init__(self, sim: Simulator, nic: RNic, cm: ConnectionManager):
        self.sim = sim
        self.nic = nic
        self.cm = cm
        #: key -> connected client; owners drop or replace entries here
        self.clients: dict[int, RpcClient] = {}
        self._dialling: dict[int, Event] = {}

    def get(self, key: int, host_id: int, service_id: str):
        """The client under *key*, dialled at first use (generator)."""
        client = self.clients.get(key)
        if client is not None:
            return client

        def dial():
            client = RpcClient(self.sim, self.nic, self.cm)
            yield from client.connect(host_id, service_id)
            self.clients[key] = client
            return client

        return (yield from self.sim.single_flight(self._dialling, key, dial))


# ---------------------------------------------------------------------------
# TCP transport (for the sockets baselines)
# ---------------------------------------------------------------------------


class _SocketChannel:
    """A connected :class:`~repro.net.tcp.Socket` as an endpoint
    channel: its EOF (``recv() is None``) and its errors are the one
    close signal, :class:`ChannelClosed`."""

    def __init__(self, sock):
        self._sock = sock

    def send(self, obj):
        try:
            return (yield from self._sock.send(obj))
        except TcpError as exc:
            raise ChannelClosed(str(exc)) from exc

    def recv(self):
        obj = yield from self._sock.recv()
        if obj is None:
            raise ChannelClosed("connection closed")
        return obj


class TcpRpcServer(_Service):
    """The same RPC service over the sockets model."""

    def __init__(self, sim: Simulator, stack, port: int):
        super().__init__(sim, stack.host.cpu, f"tcp-{port}")
        self.stack = stack
        self.port = port

    def start(self):
        listener = self.stack.listen(self.port)
        self.sim.process(self._accept_loop(listener), name="tcp-rpc-accept")
        return self

    def _accept_loop(self, listener):
        while True:
            self._serve_on(_SocketChannel((yield from listener.accept())))


class TcpRpcClient(_Caller):
    """Client half of :class:`TcpRpcServer`."""

    def __init__(self, sim: Simulator, stack):
        super().__init__(sim)
        self.stack = stack

    def connect(self, remote_stack, port: int):
        """Open the connection (generator)."""
        return self._attach(_SocketChannel(
            (yield from self.stack.connect(remote_stack, port))))
