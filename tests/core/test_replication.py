"""Replication extension: fan-out writes, replica promotion, failover.

Replication is this reproduction's availability extension (the paper's
store is volatile, single-copy).  Semantics pinned here:

* writes land on every replica, reads on the primary;
* when a server dies, stripes with surviving replicas are promoted and
  the region stays available (new descriptor version);
* data written before the failure is readable after re-mapping;
* a region loses availability only when some stripe loses *all* copies.
"""

import pytest

from repro.core import RegionUnavailableError, RStoreConfig, RStoreError
from repro.cluster import build_cluster
from repro.simnet.config import KiB, MiB


def fresh_cluster(machines=5):
    return build_cluster(
        num_machines=machines,
        config=RStoreConfig(stripe_size=64 * KiB, heartbeat_interval_s=0.02,
                            lease_timeout_s=0.07),
        server_capacity=64 * MiB,
    )


def test_replicated_alloc_places_distinct_copies():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("r2", 256 * KiB, replication=2)
        return region

    region = cluster.run_app(app())
    assert all(stripe.replication == 2 for stripe in region.stripes)
    for stripe in region.stripes:
        hosts = [r.host_id for r in stripe.replicas]
        assert len(set(hosts)) == 2


def test_write_lands_on_every_replica():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("mirrored", 64 * KiB, replication=2)
        mapping = yield from client.map(region)
        yield from mapping.write(100, b"both-copies")
        stripe = region.stripes[0]
        views = []
        for replica in stripe.replicas:
            arena_mr = cluster.servers[replica.host_id].arena_mr
            offset = arena_mr.offset_of(replica.addr)
            views.append(arena_mr.buffer.read(offset + 100, 11))
        return views

    views = cluster.run_app(app())
    assert views == [b"both-copies", b"both-copies"]


def test_read_after_primary_death_via_promotion():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def setup():
        # 4 stripes -> primaries land on hosts 0..3, so a victim that is
        # neither master (0) nor an involved client (1, 2) always exists
        region = yield from client.alloc("durable", 256 * KiB, replication=2)
        mapping = yield from client.map(region)
        yield from mapping.write(0, b"survives failure")
        return region

    region = cluster.run_app(setup())
    victim = next(
        h for h in (s.primary.host_id for s in region.stripes)
        if h not in (cluster.config.master_host, 1, 2)
    )
    cluster.kill_server(victim)
    cluster.run(until=cluster.sim.now + 0.5)

    master_copy = cluster.master.regions["durable"]
    assert master_copy.available
    # promotion bumps the version once; background repair of the
    # degraded stripes bumps it again per re-replicated copy
    assert master_copy.version > region.version
    assert all(
        victim not in [r.host_id for r in s.replicas]
        for s in master_copy.stripes
    )

    def read_back():
        mapping = yield from cluster.client(2).map("durable")
        data = yield from mapping.read(0, 16)
        return data

    assert cluster.run_app(read_back()) == b"survives failure"


def test_unreplicated_region_still_dies_with_its_server():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("fragile", 192 * KiB)
        return region

    region = cluster.run_app(setup())
    victim = next(
        h for h in region.hosts if h not in (cluster.config.master_host, 1)
    )
    cluster.kill_server(victim)
    cluster.run(until=cluster.sim.now + 0.5)
    assert not cluster.master.regions["fragile"].available


def test_atomics_rejected_on_replicated_regions():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("no-atomics", 64 * KiB,
                                         replication=2)
        mapping = yield from client.map(region)
        with pytest.raises(RStoreError, match="atomic"):
            yield from mapping.faa(0, 1)

    cluster.run_app(app())


def test_replicated_write_costs_more_than_single():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        r1 = yield from client.alloc("w1", 1 * MiB)
        r2 = yield from client.alloc("w2", 1 * MiB, replication=3)
        m1 = yield from client.map(r1)
        m2 = yield from client.map(r2)
        local = yield from client.alloc_local(1 * MiB)

        t0 = cluster.sim.now
        yield from m1.write_from(local, local.addr, 0, 1 * MiB)
        single = cluster.sim.now - t0
        t1 = cluster.sim.now
        yield from m2.write_from(local, local.addr, 0, 1 * MiB)
        triple = cluster.sim.now - t1
        return single, triple

    single, triple = cluster.run_app(app())
    # three copies leave the same egress link: ~3x the wire time
    assert 2.0 * single < triple < 4.5 * single


def test_read_cost_unaffected_by_replication():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        r1 = yield from client.alloc("rd1", 1 * MiB)
        r2 = yield from client.alloc("rd2", 1 * MiB, replication=2)
        m1 = yield from client.map(r1)
        m2 = yield from client.map(r2)
        local = yield from client.alloc_local(1 * MiB)
        yield from m1.read_into(local, local.addr, 0, 1 * MiB)  # warm
        yield from m2.read_into(local, local.addr, 0, 1 * MiB)  # warm

        t0 = cluster.sim.now
        yield from m1.read_into(local, local.addr, 0, 1 * MiB)
        single = cluster.sim.now - t0
        t1 = cluster.sim.now
        yield from m2.read_into(local, local.addr, 0, 1 * MiB)
        replicated = cluster.sim.now - t1
        return single, replicated

    single, replicated = cluster.run_app(app())
    assert replicated == pytest.approx(single, rel=0.5)


def test_free_returns_capacity_for_all_copies():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        before = yield from client._master_call("cluster_stats")
        yield from client.alloc("acct", 256 * KiB, replication=2)
        during = yield from client._master_call("cluster_stats")
        yield from client.free("acct")
        after = yield from client._master_call("cluster_stats")
        return before, during, after

    before, during, after = cluster.run_app(app())
    assert before["total_free"] - during["total_free"] == 2 * 256 * KiB
    assert after["total_free"] == before["total_free"]
