"""Server-side paths connect at open, to every host at once.

A handle that may run server-side — a table opened under any policy
but ``one_sided``, a counter created under one, a two-sided ablation
mapping — dials each host's memory-service channel (and opens its
fetch buffer, when remote fetch is a candidate) before its first op,
so no op pays a dial and the selector never sees a first contact.
"""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.kv.hashkv import RKVStore
from repro.rdma.cm import ConnectError
from repro.simnet.config import KiB, MiB
from tests.probes import create_table, host_count

SERVERS = [2, 3, 4, 5]


def four_server_cluster(**overrides):
    # 4 KiB stripes spread a 256-slot table over all four servers
    config = RStoreConfig(stripe_size=4 * KiB, **overrides)
    return build_cluster(num_machines=6, config=config,
                         server_capacity=64 * MiB, server_hosts=SERVERS)


def one_dial_s(cluster):
    """Simulated time of one memory-service dial, from a client that
    has dialled nothing yet."""
    client = cluster.client(0)

    def dial():
        started = cluster.sim.now
        yield from client._mem_channel(SERVERS[0])
        return cluster.sim.now - started

    return cluster.run_app(dial())


@pytest.mark.parametrize("policy", ["adaptive", "server_op"])
def test_a_server_side_open_dials_every_host_once_and_at_once(policy):
    cluster = four_server_cluster()
    client = cluster.client(1)

    def app():
        # the creating handle maps the table: its data QPs are up
        yield from RKVStore.create(client, "wide", slots=256, key_size=16,
                                   value_size=64)
        dials_before = cluster.cm.connections
        started = cluster.sim.now
        store = yield from RKVStore.open(client, "wide", path_policy=policy)
        opened_in = cluster.sim.now - started
        hosts = store.mapping.desc.hosts
        assert sorted(hosts) == SERVERS
        # one channel per host, each dialled once (no data QP redialled)
        assert cluster.cm.connections - dials_before == len(hosts)
        assert sorted(client._mem_rpc.clients) == SERVERS
        setup_before = client.setup_events
        for i in range(4):
            yield from store.put(b"k%d" % i, b"v%d" % i)
        for i in range(4):
            assert (yield from store.get(b"k%d" % i)) == b"v%d" % i
        # the first server-side ops found every path connected
        assert client.setup_events == setup_before
        assert host_count(client, "datapath.server_ops") > 0
        if policy == "adaptive":  # the deposit path is ready too
            assert sorted(client.datapath._fetch_bufs) == SERVERS
        return opened_in

    opened_in = cluster.run_app(app())
    # the dials ran side by side: the open costs about one of them
    assert opened_in < 1.5 * one_dial_s(cluster)


def test_a_one_sided_open_dials_no_memory_channel():
    cluster = four_server_cluster()
    client = cluster.client(1)

    def app():
        yield from RKVStore.create(client, "classic", slots=256,
                                   key_size=16, value_size=64)
        store = yield from RKVStore.open(client, "classic",
                                         path_policy="one_sided")
        yield from store.put(b"k", b"v")
        assert (yield from store.get(b"k")) == b"v"

    cluster.run_app(app())
    assert client._mem_rpc.clients == {}
    assert client._datapath is None


def test_a_two_sided_mapping_dials_at_map_not_at_first_read():
    cluster = four_server_cluster(two_sided_data_path=True)
    client = cluster.client(1)

    def app():
        yield from client.alloc("scan", 16 * 4 * KiB)
        mapping = yield from client.map("scan")
        assert sorted(mapping.desc.hosts) == SERVERS
        assert sorted(client._mem_rpc.clients) == SERVERS
        dials, setup = cluster.cm.connections, client.setup_events
        for stripe in mapping.desc.stripes:  # every host, first read each
            yield from mapping.read(stripe.index * 4 * KiB, 64)
        assert (cluster.cm.connections, client.setup_events) == (dials,
                                                                 setup)

    cluster.run_app(app())


def test_a_dial_to_a_dead_host_fails_the_open():
    cluster = four_server_cluster()
    client = cluster.client(1)

    def app():
        yield from RKVStore.create(client, "doomed", slots=256, key_size=16,
                                   value_size=64)
        # the data QPs stay connected until traffic finds the host gone;
        # the channel dial at open finds it first
        cluster.kill_server(SERVERS[-1])
        with pytest.raises(ConnectError):
            yield from RKVStore.open(client, "doomed",
                                     path_policy="server_op")
        assert SERVERS[-1] not in client._mem_rpc.clients

    cluster.run_app(app())


def test_concurrent_cold_first_ops_count_one_set_up_per_dial():
    # a handle built without its open's connect dials at its first op;
    # three racing gets share that one channel dial, and at the parent
    # each of them counted it: setup_events moved by 3
    cluster = build_cluster(num_machines=2,
                            config=RStoreConfig(stripe_size=64 * KiB),
                            server_capacity=64 * MiB)
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "cold", slots=64,
                                        key_size=16, value_size=64,
                                        path_policy="server_op")
        dials, setup = cluster.cm.connections, client.setup_events
        yield cluster.sim.all_of([cluster.sim.process(store.get(b"k%d" % i))
                                  for i in range(3)])
        assert cluster.cm.connections - dials == 1
        assert client.setup_events - setup == 1

    cluster.run_app(app())
