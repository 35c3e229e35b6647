"""Cluster builder options and wiring."""

import gc
import weakref

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB, NetworkConfig


def test_default_layout_matches_paper():
    cluster = build_cluster(num_machines=4, server_capacity=16 * MiB)
    assert cluster.num_machines == 4
    assert sorted(cluster.servers) == [0, 1, 2, 3]
    assert sorted(cluster.clients) == [0, 1, 2, 3]
    assert cluster.master is not None
    assert cluster.boot_time > 0


def test_custom_server_and_client_hosts():
    cluster = build_cluster(
        num_machines=4,
        server_hosts=[1, 2],
        client_hosts=[3],
        server_capacity=16 * MiB,
    )
    assert sorted(cluster.servers) == [1, 2]
    assert sorted(cluster.clients) == [3]

    def app():
        region = yield from cluster.client(3).alloc("t", 64 * KiB)
        return region

    region = cluster.run_app(app())
    assert set(region.hosts) <= {1, 2}


def test_custom_network_config_is_used():
    net_config = NetworkConfig(link_rate_bps=10e9)
    cluster = build_cluster(num_machines=2, net_config=net_config,
                            server_capacity=16 * MiB)
    assert cluster.net.config.link_rate_bps == 10e9


def test_nic_and_tcp_on_every_host():
    cluster = build_cluster(num_machines=3, server_capacity=16 * MiB)
    assert len(cluster.nics) == 3
    assert len(cluster.tcp_stacks) == 3
    for host in cluster.net.hosts:
        assert "rnic" in host.services
        assert "tcp" in host.services


def test_spawn_and_run_until_time():
    cluster = build_cluster(num_machines=2, server_capacity=16 * MiB)
    hits = []

    def ticker():
        for _ in range(3):
            yield cluster.sim.timeout(0.01)
            hits.append(cluster.sim.now)

    cluster.spawn(ticker())
    cluster.run(until=cluster.sim.now + 0.025)
    assert len(hits) == 2


def test_network_bytes_accounting():
    cluster = build_cluster(num_machines=2, server_capacity=16 * MiB)
    before = cluster.network_bytes()

    def app():
        region = yield from cluster.client(0).alloc("traffic", 64 * KiB)
        mapping = yield from cluster.client(0).map(region)
        yield from mapping.write(0, b"x" * 4096)

    cluster.run_app(app())
    assert cluster.network_bytes() > before


@pytest.mark.parametrize("sanitize", [False, True])
def test_a_dropped_cluster_is_garbage(sanitize):
    """Nothing process-global may keep a finished simulation alive:
    its event queue, cluster and server arenas go with it."""
    cluster = build_cluster(num_machines=4, server_capacity=16 * MiB,
                            config=RStoreConfig(sanitize=sanitize))
    client = cluster.client(1)

    def app():
        yield from client.alloc("t", 64 * KiB)
        mapping = yield from client.map("t")
        yield from mapping.write(0, b"abc")
        data = yield from mapping.read(0, 3)
        return data

    assert cluster.run_app(app()) == b"abc"
    sim = weakref.ref(cluster.sim)
    del cluster, client, app
    gc.collect()
    assert sim() is None


def test_a_cluster_does_not_depend_on_what_was_built_beside_it():
    """Handle values (rkeys, QP numbers, PD handles) ride in pickled
    RPC payloads, so they are simulated wire time: a simulation numbers
    its own, and one built *between* another's build and run moves
    neither its handles nor its clock."""
    def build(machines=3):
        return build_cluster(num_machines=machines,
                             server_capacity=16 * MiB)

    def drive(cluster):
        client = cluster.client(1)

        def app():
            yield from client.alloc("solo", 256 * KiB)
            mapping = yield from client.map("solo")
            yield from mapping.write(0, b"x" * 4096)
            return ([replica.rkey for stripe in mapping.desc.stripes
                     for replica in stripe.replicas],
                    sorted(qp.qp_num for qp in client._data_qps.values()),
                    client._staging.mr.pd.handle)

        return cluster.run_app(app()), cluster.sim.now

    alone = drive(build())
    first = build()
    build(5)  # a neighbour, built after `first` and before it runs
    assert drive(first) == alone
