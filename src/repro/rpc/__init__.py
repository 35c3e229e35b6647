"""Request/response messaging over RDMA SEND/RECV or sockets.

RStore's control path (client ↔ master, master ↔ memory servers) is
RPC over RDMA two-sided messaging; the comparison baselines use the
same RPC layer over the TCP model.  Handlers are generator functions
running on the server's host, so any CPU or IO they charge lands on the
right machine.
"""

from repro.rpc.endpoint import (
    RpcClient,
    RpcClientPool,
    RpcError,
    RpcRemoteError,
    RpcServer,
    TcpRpcClient,
    TcpRpcServer,
)

__all__ = [
    "RpcClient",
    "RpcClientPool",
    "RpcError",
    "RpcRemoteError",
    "RpcServer",
    "TcpRpcClient",
    "TcpRpcServer",
]
