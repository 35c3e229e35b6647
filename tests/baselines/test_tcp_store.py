"""Sockets-store comparator tests."""

import pytest

from repro.baselines import TcpMemoryClient, TcpMemoryServer
from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.rpc.endpoint import RpcRemoteError
from repro.simnet.config import KiB, MiB, us


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(num_machines=3,
                         config=RStoreConfig(stripe_size=256 * KiB),
                         server_capacity=64 * MiB)


def test_read_returns_the_served_bytes(cluster):
    server = TcpMemoryServer(cluster, host_id=2, size=1 * MiB, port=7950)
    server.buffer[100:112] = b"socket-store"

    def app():
        client = yield from TcpMemoryClient(cluster, 0).connect(server)
        data = yield from client.read(100, 12)
        return data

    assert cluster.run_app(app()) == b"socket-store"


def test_out_of_bounds_rejected(cluster):
    server = TcpMemoryServer(cluster, host_id=2, size=4 * KiB, port=7951)

    def app():
        client = yield from TcpMemoryClient(cluster, 0).connect(server)
        with pytest.raises(RpcRemoteError, match="bounds"):
            yield from client.read(0, 8 * KiB)

    cluster.run_app(app())


def test_slower_than_rstore_small_reads(cluster):
    """E2's qualitative core: sockets-store latency >> RStore latency."""
    server = TcpMemoryServer(cluster, host_id=2, size=1 * MiB, port=7952)
    rstore_client = cluster.client(0)

    def app():
        tcp = yield from TcpMemoryClient(cluster, 0).connect(server)
        region = yield from rstore_client.alloc("lat-cmp", 1 * MiB)
        mapping = yield from rstore_client.map(region)

        t0 = cluster.sim.now
        for _ in range(10):
            yield from mapping.read(0, 64)
        rstore_lat = (cluster.sim.now - t0) / 10

        t1 = cluster.sim.now
        for _ in range(10):
            yield from tcp.read(0, 64)
        tcp_lat = (cluster.sim.now - t1) / 10
        return rstore_lat, tcp_lat

    rstore_lat, tcp_lat = cluster.run_app(app())
    assert rstore_lat < us(5)
    assert tcp_lat > 4 * rstore_lat


def test_server_cpu_burns_under_sockets(cluster):
    server = TcpMemoryServer(cluster, host_id=1, size=8 * MiB, port=7953)
    before = cluster.net.host(1).cpu.busy_seconds

    def app():
        client = yield from TcpMemoryClient(cluster, 0).connect(server)
        for _ in range(20):
            yield from client.read(0, 64 * KiB)

    cluster.run_app(app())
    assert cluster.net.host(1).cpu.busy_seconds - before > 100 * us(1)
