"""The master's control ops, and who they touch.

Each shard master owns its slices of the memory servers' arenas:
``alloc`` carves stripes out of them and ``free`` returns them without
a single RPC to a memory server, so a control op costs the same on one
server as on four.  What that must not cost: a reservation one slice
cannot fit rolls every slice back, a committed ``free`` always returns
the capacity, and a restarted master rebuilds each slice exactly from
its replayed descriptors.  Concurrent first contacts on the remaining
channels still dial each peer once.
"""

import pytest

from repro.cluster import build_cluster
from repro.core import AllocationError, RegionNotFoundError, RStoreConfig
from repro.rdma.types import RdmaError
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector
from tests.probes import live_allocations

STRIPE = 64 * KiB
CAPACITY = 64 * MiB


def fresh_cluster(faults=None, **config):
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=STRIPE, **config),
        server_capacity=CAPACITY,
        faults=faults,
    )


def live_by_host(master):
    return {slot.host_id: live_allocations(slot.arena)
            for slot in master.allocator.servers}


def free_extents(master):
    return {slot.host_id: list(slot.arena._free)
            for slot in master.allocator.servers}


# -- rollback ---------------------------------------------------------------


# the round is the master's reservations in its four slices, one per
# server; the victim's slice is the one that cannot fit its stripes
@pytest.mark.parametrize("victim", [0, 1, 2, 3])
def test_a_failed_reservation_rolls_the_whole_round_back(victim):
    cluster = fresh_cluster()
    client = cluster.client(1)
    master = cluster.master
    allocator = master.allocator
    # fragment the victim's slice: half of it free, in 32 KiB holes no
    # 64 KiB stripe fits, so placement picks it and the reserve fails
    arena = allocator.server(victim).arena
    chunks = [arena.reserve(STRIPE // 2)
              for _ in range(CAPACITY // (STRIPE // 2))]
    for addr in chunks[::2]:
        arena.release(addr)
    extents, free_before = free_extents(master), allocator.total_free
    served = {h: s._rpc.requests_served for h, s in cluster.servers.items()}

    def app():
        with pytest.raises(AllocationError, match="none of its"):
            yield from client.alloc("r", 8 * STRIPE)

    cluster.run_app(app())
    assert free_extents(master) == extents
    assert allocator.total_free == free_before
    # decided at the master: no memory server heard of it
    assert not master._server_rpc.clients
    assert {h: s._rpc.requests_served for h, s in cluster.servers.items()} == served

    for addr in chunks[1::2]:
        arena.release(addr)

    def again():
        region = yield from client.alloc("r", 8 * STRIPE)
        return sorted(region.hosts)

    assert cluster.run_app(again()) == [0, 1, 2, 3]
    assert live_by_host(master) == {0: 2, 1: 2, 2: 2, 3: 2}


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
    assert live_by_host(cluster.master) == {0: 0, 1: 0, 2: 0, 3: 0}
    cluster.run(until=cluster.sim.now + 1.0)  # the lease expires
    assert not allocator.server(3).alive
    assert [s.free for s in allocator.servers] == [CAPACITY] * 4


# -- the master owns the slices ---------------------------------------------


@pytest.mark.parametrize("shards", [1, 2])
def test_concurrent_allocs_and_frees_open_no_master_server_channel(shards):
    cluster = fresh_cluster(control_shards=shards)
    names = [f"t{i}/r" for i in range(6)]
    owners = {cluster.masters[0].shard_map.shard_of(n) for n in names}
    assert owners == set(range(shards))  # every shard master is exercised

    def cycle(client, name):
        yield from client.alloc(name, 8 * STRIPE)
        yield from client.free(name)

    procs = [
        cluster.spawn(cycle(cluster.client(1 + i % 3), name))
        for i, name in enumerate(names)
    ]
    for proc in procs:
        cluster.run(until=proc)
    for server in cluster.servers.values():
        assert not server._rpc._accepted
    for master in cluster.masters:
        assert not master._server_rpc.clients
        assert [s.free for s in master.allocator.servers] == [
            master.allocator.server(0).capacity] * 4


@pytest.mark.parametrize("shards", [1, 2])
def test_a_master_restart_rebuilds_every_slice_as_it_was(shards):
    cluster = fresh_cluster(control_shards=shards)
    client = cluster.client(1)

    def setup():
        for i in range(12):
            yield from client.alloc(f"t{i}/r", (i % 5 + 1) * STRIPE + 100,
                                    replication=1 + i % 2)
        for i in range(0, 12, 2):
            yield from client.free(f"t{i}/r")

    cluster.run_app(setup())
    before = [free_extents(m) for m in cluster.masters]
    # every shard has holes to get wrong
    assert all(any(len(ext) > 1 for ext in m.values()) for m in before)

    def restart():
        for shard in range(shards):
            cluster.crash_master(shard)
            yield from cluster.restart_master(shard)
        yield cluster.sim.timeout(cluster.config.recovery_grace_s + 0.1)

    cluster.run_app(restart())
    assert all(not m.recovering for m in cluster.masters)
    assert [free_extents(m) for m in cluster.masters] == before


def test_a_fresh_re_registration_resets_the_slice():
    faults = FaultInjector().drop_heartbeats(3, start=0.0, duration=0.6)
    cluster = fresh_cluster(faults)
    client = cluster.client(1)
    master = cluster.master
    cluster.run_app(client.alloc("r", 8 * STRIPE))
    assert live_allocations(master.allocator.server(3).arena) == 2
    cluster.run(until=cluster.boot_time + 1.5)  # buried, then rejoined
    slot = master.allocator.server(3)
    assert slot.alive and slot.epoch >= 1
    assert slot.free == CAPACITY and live_allocations(slot.arena) == 0
    assert not master.regions["r"].available

    # the lost region still names the old era's bytes, which the new
    # slice may hand out again: freeing it must not release those
    def reuse():
        fresh = yield from client.alloc("n", STRIPE, preferred_host=3)
        stale = {r.addr for s in master.regions["r"].stripes
                 for r in s.replicas if r.host_id == 3}
        assert fresh.stripes[0].addr in stale
        yield from client.free("r")

    cluster.run_app(reuse())
    assert live_allocations(slot.arena) == 1


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
    # first contact: the client's master channel warm
    cluster.run_app(client.alloc("warm", 8 * STRIPE))
    cluster.run_app(client.free("warm"))

    # one remote server (host 3) against all four
    alloc_one = _timed(cluster, client.alloc("one", STRIPE, preferred_host=3))
    free_one = _timed(cluster, client.free("one"))
    alloc_four = _timed(cluster, client.alloc("four", 4 * STRIPE))
    free_four = _timed(cluster, client.free("four"))
    # 9.55 / 9.69 µs alloc, 9.25 / 9.25 µs free: the WAL append and the
    # client's round trip.  With a parallel reserve/release round to the
    # servers it was 13.82 / 14.71 and 13.51 / 14.26 µs, and with one
    # round trip per server 25.17 / 24.71 µs on four
    assert 9.0 < alloc_one <= alloc_four < alloc_one + 0.5
    assert 9.0 < free_one <= free_four < free_one + 0.5


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
