"""Memory-server boot state, and the master's slices of its arena."""

import pytest

from repro.core import RStoreConfig
from repro.cluster import build_cluster
from repro.simnet.config import Gbps, KiB, MiB, ms, us


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=3,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )


def test_servers_boot_with_registered_arenas(cluster):
    allocator = cluster.master.allocator
    for host_id, server in cluster.servers.items():
        assert server.alive
        assert server.arena_mr.rkey in server.nic.mr_by_rkey
        # the master's slice is the whole MR: one control shard
        arena = allocator.server(host_id).arena
        assert (arena.base, arena.capacity) == (server.arena_mr.addr,
                                                16 * MiB)


def test_allocation_is_visible_in_server_arenas(cluster):
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("arena-acct", 128 * KiB)
        return region

    region = cluster.run_app(app())
    for stripe in region.stripes:
        arena = cluster.master.allocator.server(stripe.host_id).arena
        assert arena.capacity - arena.free_bytes >= stripe.length


def test_unit_helpers():
    assert Gbps(10) == 10e9
    assert us(2) == pytest.approx(2e-6)
    assert ms(3) == pytest.approx(3e-3)
    assert KiB == 1024 and MiB == 1024 * 1024
