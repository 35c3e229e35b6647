"""The master's scatter-gather control rounds.

``alloc`` reserves on every involved memory server in one parallel
round and ``free`` releases in one, so a control op costs its
slowest server.  What the parallelism must not cost: a half-failed
round is rolled back completely (the round has settled everywhere
before the rollback starts), a committed ``free`` always returns the
tracked capacity, and concurrent first contacts dial each server once.
"""

import pytest

from repro.cluster import build_cluster
from repro.core import AllocationError, RegionNotFoundError, RStoreConfig
from repro.rdma.types import RdmaError
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector

STRIPE = 64 * KiB
CAPACITY = 64 * MiB


def fresh_cluster(faults=None, **config):
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=STRIPE, **config),
        server_capacity=CAPACITY,
        faults=faults,
    )


def live_allocations(cluster):
    return {
        host_id: sum(a.live_allocations for a in server.arenas.values())
        for host_id, server in cluster.servers.items()
    }


# -- rollback ---------------------------------------------------------------


# first, last, and host 0: the master's own loopback, which answers
# soonest, so its failure is in hand while the others are still in flight
@pytest.mark.parametrize("victim", [0, 1, 2, 3])
def test_a_failed_reservation_rolls_the_whole_round_back(victim):
    faults = FaultInjector().fail_rpc(victim, 0.0, 10.0,
                                      method="reserve_batch", times=1)
    cluster = fresh_cluster(faults)
    client = cluster.client(1)
    allocator = cluster.master.allocator
    free_before = allocator.total_free

    def app():
        with pytest.raises(AllocationError, match="allocation of 'r' failed"):
            yield from client.alloc("r", 8 * STRIPE)

    cluster.run_app(app())
    cluster.run(until=cluster.sim.now + 0.01)  # quiescence
    assert faults.injected["rpc"] == 1
    assert live_allocations(cluster) == {0: 0, 1: 0, 2: 0, 3: 0}
    assert allocator.total_free == free_before
    assert [s.free for s in allocator.servers] == [CAPACITY] * 4

    def again():
        region = yield from client.alloc("r", 8 * STRIPE)
        return sorted(region.hosts)

    assert cluster.run_app(again()) == [0, 1, 2, 3]
    assert live_allocations(cluster) == {0: 2, 1: 2, 2: 2, 3: 2}


def test_a_release_that_fails_in_the_rollback_keeps_the_allocation_error():
    faults = (FaultInjector()
              .fail_rpc(3, 0.0, 10.0, method="reserve_batch", times=1)
              .fail_rpc(1, 0.0, 10.0, method="release_batch", times=1))
    cluster = fresh_cluster(faults)
    client = cluster.client(1)
    allocator = cluster.master.allocator

    def app():
        # the AllocationError, not the release's own failure
        with pytest.raises(AllocationError, match="allocation of 'r' failed"):
            yield from client.alloc("r", 8 * STRIPE)

    cluster.run_app(app())
    assert faults.injected["rpc"] == 2
    # tracked capacity came back although one server could not be told;
    # its two orphans wait for the next re-registration
    assert [s.free for s in allocator.servers] == [CAPACITY] * 4
    assert live_allocations(cluster) == {0: 0, 1: 2, 2: 0, 3: 0}
    assert any("release round incomplete" in line
               for _when, line in cluster.master.repair.log)


# -- free is committed at its record ---------------------------------------


def test_free_survives_a_hosting_server_that_is_dead_but_not_declared():
    cluster = fresh_cluster()
    client = cluster.client(1)
    allocator = cluster.master.allocator

    def app():
        yield from client.alloc("r", 8 * STRIPE)
        cluster.kill_server(3)  # the lease checker has not noticed yet
        assert allocator.server(3).alive
        freed = yield from client.free("r")
        with pytest.raises(RegionNotFoundError):
            yield from client.lookup("r")
        return freed

    assert cluster.run_app(app()) is True
    assert [allocator.server(h).free for h in (0, 1, 2)] == [CAPACITY] * 3
    assert live_allocations(cluster)[0] == 0
    cluster.run(until=cluster.sim.now + 1.0)  # the lease expires
    assert not allocator.server(3).alive
    assert [s.free for s in allocator.servers] == [CAPACITY] * 4


# -- single-flight dials ----------------------------------------------------


@pytest.mark.parametrize("shards", [1, 2])
def test_concurrent_first_allocs_dial_each_server_once_per_shard(shards):
    cluster = fresh_cluster(control_shards=shards)
    names = [f"t{i}/r" for i in range(6)]
    owners = {cluster.masters[0].shard_map.shard_of(n) for n in names}
    assert owners == set(range(shards))  # every shard master is exercised

    def first_alloc(client, name):
        yield from client.alloc(name, 8 * STRIPE)

    procs = [
        cluster.spawn(first_alloc(cluster.client(1 + i % 3), name))
        for i, name in enumerate(names)
    ]
    for proc in procs:
        cluster.run(until=proc)
    for server in cluster.servers.values():
        # one control channel per shard master, however many raced
        assert len(server._rpc._accepted) == shards
    for master in cluster.masters:
        assert sorted(master._server_rpc.clients) == [0, 1, 2, 3]
        assert not master._server_rpc._dialling


def test_concurrent_first_uses_share_one_memory_service_channel():
    cluster = fresh_cluster()
    client = cluster.client(1)
    accepted = cluster.server(2)._rpc._accepted
    before = len(accepted)
    procs = [cluster.spawn(client._mem_channel(2)) for _ in range(3)]
    channels = [cluster.run(until=proc) for proc in procs]
    assert channels[0] is channels[1] is channels[2]
    assert len(accepted) == before + 1


def test_concurrent_maps_dial_one_data_qp_per_server():
    # at the parent each of the four maps dialled every server: sixteen
    # connects, four QPs kept, twelve left connected on the servers
    cluster = fresh_cluster()
    cluster.run_app(cluster.client(0).alloc("r", 8 * STRIPE))
    client = cluster.client(1)
    before = client.setup_events
    procs = [cluster.spawn(client.map("r")) for _ in range(4)]
    mappings = [cluster.run(until=proc) for proc in procs]
    assert client.setup_events == before + 4
    assert sorted(client._data_qps) == [0, 1, 2, 3] and not client._qp_dials
    for mapping in mappings:
        assert cluster.run_app(mapping.read(0, 8)) == bytes(8)


def test_a_failed_dial_is_forgotten_so_the_next_call_retries():
    cluster = fresh_cluster()
    router = cluster.client(1)._router
    router.drop(0)
    master_rpc = cluster.master._rpc
    cluster.cm.stop_listening(master_rpc.nic, master_rpc.service_id)

    def dial():
        try:
            yield from router.client_for(0)
        except RdmaError as exc:
            return exc
        return None

    procs = [cluster.spawn(dial()) for _ in range(2)]
    failures = [cluster.run(until=proc) for proc in procs]
    # the waiter hears the dialler's failure, and nothing stays parked
    assert failures[0] is not None and failures[1] is failures[0]
    assert not router._clients._dialling and not router._clients.clients

    def redial():
        yield from master_rpc.start()
        return (yield from router.client_for(0))

    assert cluster.run_app(redial()).connected


# -- what the round costs ---------------------------------------------------


def _timed(cluster, generator):
    def app():
        started = cluster.sim.now
        yield from generator
        return (cluster.sim.now - started) * 1e6

    return cluster.run_app(app())


def test_a_four_server_control_op_costs_about_a_one_server_one():
    cluster = fresh_cluster()
    client = cluster.client(1)
    # first contact: every server dialled, every channel warm
    cluster.run_app(client.alloc("warm", 8 * STRIPE))
    cluster.run_app(client.free("warm"))

    # one remote server (host 3) against all four
    alloc_one = _timed(cluster, client.alloc("one", STRIPE, preferred_host=3))
    free_one = _timed(cluster, client.free("one"))
    alloc_four = _timed(cluster, client.alloc("four", 4 * STRIPE))
    free_four = _timed(cluster, client.free("four"))
    # the parent paid one round trip per server: 25.17 / 24.71 µs on four
    assert 13.0 < alloc_one < alloc_four < alloc_one + 1.0
    assert 13.0 < free_one < free_four < free_one + 1.0


def test_list_regions_asks_every_shard_in_one_round():
    cluster = fresh_cluster(control_shards=8)
    client = cluster.client(1)
    names = [f"t{i}/r" for i in range(12)]

    def setup():
        for name in names:
            yield from client.alloc(name, STRIPE)

    cluster.run_app(setup())
    one_shard = _timed(cluster, client._master_call("list_regions", shard=7))
    calls = client.master_calls

    def listing():
        started = cluster.sim.now
        listed = yield from client.list_regions()
        return listed, (cluster.sim.now - started) * 1e6

    listed, all_shards = cluster.run_app(listing())
    assert listed == sorted(names)
    assert client.master_calls - calls == 8  # still one RPC per shard
    # eight answers share the client's and the master host's NIC and
    # cores, so not exactly one RPC — but nowhere near eight
    assert one_shard < all_shards < 2 * one_shard
