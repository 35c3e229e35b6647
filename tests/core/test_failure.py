"""Failure handling: server death, lease expiry, region invalidation."""

import pytest

from repro.core import RegionUnavailableError, RStoreConfig
from repro.cluster import build_cluster
from repro.core.server import SERVER_REJOIN_DEADLINE_S
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector


def fresh_cluster(faults=None):
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB, heartbeat_interval_s=0.02,
                            lease_timeout_s=0.07),
        server_capacity=64 * MiB,
        faults=faults,
    )


def test_master_declares_dead_server_after_lease_expiry():
    cluster = fresh_cluster()
    cluster.kill_server(2)
    cluster.run(until=cluster.sim.now + 0.5)
    slot = cluster.master.allocator.server(2)
    assert not slot.alive


def test_regions_on_dead_server_become_unavailable():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("doomed", 256 * KiB)
        return region

    region = cluster.run_app(setup())
    # kill a hosting server that is neither the master's machine nor the
    # machine our test client runs on (a dead client can't observe anything)
    victim = next(
        h for h in region.hosts
        if h not in (cluster.config.master_host, 1)
    )
    cluster.kill_server(victim)
    cluster.run(until=cluster.sim.now + 0.5)
    assert not cluster.master.regions["doomed"].available

    def try_map():
        with pytest.raises(RegionUnavailableError):
            yield from client.map("doomed")

    cluster.run_app(try_map())


def test_an_alloc_on_a_partitioned_server_succeeds_until_its_lease_lapses():
    # the master reserves in its own slice of the server and asks it
    # nothing, so a partition the lease checker has not noticed yet does
    # not stop the alloc; with one copy the region is lost with the lease
    faults = FaultInjector().partition([[3], [0, 1, 2]], start=0.0,
                                       duration=1.0)
    cluster = fresh_cluster(faults)
    client = cluster.client(1)
    slot = cluster.master.allocator.server(3)

    def app():
        region = yield from client.alloc("cut-off", 64 * KiB,
                                         preferred_host=3)
        assert region.hosts == (3,) and slot.alive
        yield cluster.sim.timeout(0.5)
        assert not slot.alive
        with pytest.raises(RegionUnavailableError):
            yield from cluster.client(2).map("cut-off")

    cluster.run_app(app())
    assert faults.injected["partition"] > 0


def test_inflight_io_to_dead_server_fails():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("inflight", 256 * KiB)
        mapping = yield from client.map(region)
        victim = next(
            h for h in region.hosts
            if h not in (cluster.config.master_host, 1)
        )
        cluster.servers[victim].kill()
        with pytest.raises(RegionUnavailableError):
            yield from mapping.read(0, 256 * KiB)

    cluster.run_app(app())


def test_allocation_steers_around_dead_server():
    cluster = fresh_cluster()
    client = cluster.client(1)
    cluster.kill_server(3)
    cluster.run(until=cluster.sim.now + 0.5)

    def app():
        region = yield from client.alloc("survivor", 512 * KiB)
        return region

    region = cluster.run_app(app())
    assert 3 not in region.hosts
    assert region.available


def test_surviving_regions_keep_working_after_unrelated_death():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def setup():
        # Pin the region to servers 0 and 1 by allocating while only
        # checking hosts afterwards; retry names until placement avoids 3.
        for attempt in range(8):
            name = f"lucky-{attempt}"
            region = yield from client.alloc(name, 128 * KiB)
            if 3 not in region.hosts:
                mapping = yield from client.map(region)
                yield from mapping.write(0, b"persist")
                return name
            yield from client.free(name)
        raise AssertionError("could not place a region avoiding host 3")

    name = cluster.run_app(setup())
    cluster.kill_server(3)
    cluster.run(until=cluster.sim.now + 0.5)

    def verify():
        mapping = yield from cluster.client(2).map(name)
        data = yield from mapping.read(0, 7)
        return data

    assert cluster.run_app(verify()) == b"persist"


def test_flapping_server_rejoins_after_false_positive_death():
    """Heartbeats delayed past the lease: the master declares the server
    dead (a false positive — the host never crashed), replicated regions
    survive via promotion + repair, and once heartbeats resume the
    server learns it was dropped and simply re-registers."""
    faults = FaultInjector(seed=3)
    # silence longer than lease_timeout (0.07), then resume
    faults.drop_heartbeats(3, start=0.2, duration=0.15)
    cluster = fresh_cluster(faults=faults)
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("steady", 256 * KiB, replication=2)
        mapping = yield from client.map(region)
        yield from mapping.write(0, b"hold the line")
        return region

    cluster.run_app(setup())

    # mid-window: the lease has expired and the master dropped host 3,
    # even though its server process is perfectly healthy
    cluster.run(until=cluster.boot_time + 0.32)
    assert not cluster.master.allocator.host_alive(3)
    assert cluster.servers[3].alive

    # window over: heartbeats resume, the reply says needs_register,
    # and the server rejoins with a clean arena
    cluster.run(until=cluster.sim.now + 1.0)
    slot = cluster.master.allocator.get_server(3)
    assert slot is not None and slot.alive
    assert any("rejoined" in msg for _t, msg in cluster.master.repair.log)

    # no region was lost: promotion kept it available, repair re-filled
    # the copies that lived on host 3
    region = cluster.master.regions["steady"]
    assert region.available
    assert all(s.replication == 2 for s in region.stripes)

    def verify():
        mapping = yield from cluster.client(2).map("steady")
        data = yield from mapping.read(0, 13)
        return data

    assert cluster.run_app(verify()) == b"hold the line"


def test_cluster_stats_reflect_dead_server():
    cluster = fresh_cluster()
    cluster.kill_server(1)
    cluster.run(until=cluster.sim.now + 0.5)
    client = cluster.client(0)

    def app():
        stats = yield from client._master_call("cluster_stats")
        return stats

    stats = cluster.run_app(app())
    assert stats["alive_servers"] == 3
    assert stats["servers"] == 4


@pytest.mark.parametrize("shards", [1, 2])
def test_a_server_stands_down_only_when_its_last_shard_is_gone(shards):
    """A shard master that stays down past the rejoin deadline is given
    up; a server dies only once it has given up every shard."""
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB, control_shards=shards),
        server_capacity=64 * MiB,
    )
    lost = shards - 1
    cluster.crash_master(shard=lost)
    cluster.run(until=cluster.sim.now + SERVER_REJOIN_DEADLINE_S + 1.0)
    for host_id, server in cluster.servers.items():
        assert server.alive is (shards > 1)
        if shards > 1:
            # the surviving shard still holds the server's lease
            assert cluster.masters[0].allocator.server(host_id).alive
