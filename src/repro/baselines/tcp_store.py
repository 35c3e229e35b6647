"""A sockets-based in-memory store: the pre-RDMA design point.

One server host exposes a byte-addressable buffer over TCP RPC; every
read is a request/response pair through the kernel stack and the
server's CPU.  Functionally equivalent to an RStore region mapped
by one client — the benchmarks run the same access patterns against
both and the difference is pure substrate.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.builder import Cluster
from repro.rpc.endpoint import TcpRpcClient, TcpRpcServer
from repro.simnet.config import MiB

__all__ = ["TcpMemoryServer", "TcpMemoryClient", "TcpKvServer",
           "TcpKvClient"]

_PORT = 7900


class TcpMemoryServer:
    """Serves reads of a host-local buffer over sockets."""

    def __init__(self, cluster: Cluster, host_id: int, size: int = 64 * MiB,
                 port: int = _PORT):
        self.cluster = cluster
        self.host_id = host_id
        self.port = port
        self.buffer = bytearray(size)
        self._cpu = cluster.net.host(host_id).cpu
        self._rpc = TcpRpcServer(
            cluster.sim, cluster.tcp_stacks[host_id], port
        )
        self._rpc.register("read", self._read)
        self._rpc.start()

    def _read(self, offset, length):
        if offset < 0 or offset + length > len(self.buffer):
            raise ValueError("read out of bounds")
        yield from self._cpu.copy(length)
        return bytes(self.buffer[offset : offset + length])


class TcpMemoryClient:
    """Client for :class:`TcpMemoryServer` with the Mapping-ish API."""

    def __init__(self, cluster: Cluster, host_id: int):
        self.cluster = cluster
        self.host_id = host_id
        self._rpc: Optional[TcpRpcClient] = None

    def connect(self, server: TcpMemoryServer):
        """Open the connection (generator)."""
        self._rpc = TcpRpcClient(
            self.cluster.sim, self.cluster.tcp_stacks[self.host_id]
        )
        yield from self._rpc.connect(
            self.cluster.tcp_stacks[server.host_id], server.port
        )
        return self

    def read(self, offset: int, length: int):
        """Read bytes (generator); response size carries the payload."""
        data = yield from self._rpc.call("read", offset, length)
        return data


class TcpKvServer:
    """A memcached-style KV service over sockets (dict on the server).

    Comparator for the one-sided hash table (:mod:`repro.kv`): every
    get/put is a request/response through the server's kernel stack and
    CPU, the design point RDMA stores displaced.
    """

    def __init__(self, cluster: Cluster, host_id: int, port: int = _PORT + 1):
        self.cluster = cluster
        self.host_id = host_id
        self.port = port
        self.table: dict[bytes, bytes] = {}
        self._cpu = cluster.net.host(host_id).cpu
        self._rpc = TcpRpcServer(
            cluster.sim, cluster.tcp_stacks[host_id], port
        )
        self._rpc.register("get", self._get)
        self._rpc.register("put", self._put)
        self._rpc.register("delete", self._delete)
        self._rpc.start()

    def _get(self, key):
        value = self.table.get(key)
        yield from self._cpu.copy(len(value) if value else len(key))
        return value

    def _put(self, key, value):
        yield from self._cpu.copy(len(key) + len(value))
        self.table[key] = value
        return True

    def _delete(self, key):
        yield from self._cpu.copy(len(key))
        return self.table.pop(key, None) is not None


class TcpKvClient:
    """Client for :class:`TcpKvServer`."""

    def __init__(self, cluster: Cluster, host_id: int):
        self.cluster = cluster
        self.host_id = host_id
        self._rpc: Optional[TcpRpcClient] = None

    def connect(self, server: TcpKvServer):
        """Open the connection (generator)."""
        self._rpc = TcpRpcClient(
            self.cluster.sim, self.cluster.tcp_stacks[self.host_id]
        )
        yield from self._rpc.connect(
            self.cluster.tcp_stacks[server.host_id], server.port
        )
        return self

    def get(self, key: bytes):
        value = yield from self._rpc.call("get", key)
        return value

    def put(self, key: bytes, value: bytes):
        result = yield from self._rpc.call("put", key, value)
        return result

    def delete(self, key: bytes):
        result = yield from self._rpc.call("delete", key)
        return result
