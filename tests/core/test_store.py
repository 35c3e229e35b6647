"""End-to-end RStore tests on a booted cluster."""

import random

import pytest

from repro.core import (
    AllocationError,
    BoundsError,
    OutOfMemoryError,
    RegionExistsError,
    RegionNotFoundError,
    RegionUnavailableError,
    RStoreConfig,
    RStoreError,
)
from repro.cluster import build_cluster
from repro.simnet.config import KiB, MiB
from tests.probes import sync_cas


@pytest.fixture(scope="module")
def cluster():
    """A small booted cluster shared across this module's tests.

    Each test uses fresh region names, so sharing is safe and keeps the
    suite fast.
    """
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )


def test_cluster_boots_all_services(cluster):
    assert cluster.master is not None
    assert len(cluster.servers) == 4
    assert len(cluster.clients) == 4
    assert cluster.boot_time > 0


def test_alloc_map_write_read_roundtrip(cluster):
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("roundtrip", 256 * KiB)
        mapping = yield from client.map(region)
        payload = bytes(range(256)) * 4
        yield from mapping.write(10_000, payload)
        data = yield from mapping.read(10_000, len(payload))
        return data, payload

    data, payload = cluster.run_app(app())
    assert data == payload


def test_write_spanning_stripes_lands_on_multiple_servers(cluster):
    client = cluster.client(2)

    def app():
        region = yield from client.alloc("spanner", 256 * KiB)
        assert len(region.hosts) > 1  # striped across servers
        mapping = yield from client.map(region)
        blob = random.Random(1).randbytes(200 * KiB)
        yield from mapping.write(0, blob)
        back = yield from mapping.read(0, len(blob))
        return blob, back

    blob, back = cluster.run_app(app())
    assert blob == back


def test_region_visible_to_other_clients(cluster):
    writer = cluster.client(0)
    reader = cluster.client(3)

    def app():
        region = yield from writer.alloc("shared", 64 * KiB)
        wmap = yield from writer.map(region)
        yield from wmap.write(0, b"from-client-0")
        rmap = yield from reader.map("shared")
        data = yield from rmap.read(0, 13)
        return data

    assert cluster.run_app(app()) == b"from-client-0"


def test_duplicate_name_raises_region_exists(cluster):
    client = cluster.client(1)

    def app():
        yield from client.alloc("dup", 4 * KiB)
        with pytest.raises(RegionExistsError):
            yield from client.alloc("dup", 4 * KiB)

    cluster.run_app(app())


def test_lookup_unknown_raises(cluster):
    client = cluster.client(1)

    def app():
        with pytest.raises(RegionNotFoundError):
            yield from client.lookup("never-created")

    cluster.run_app(app())


def test_free_releases_name_and_capacity(cluster):
    client = cluster.client(1)

    def app():
        yield from client.alloc("to-free", 128 * KiB)
        before = yield from client._master_call("cluster_stats")
        yield from client.free("to-free")
        after = yield from client._master_call("cluster_stats")
        with pytest.raises(RegionNotFoundError):
            yield from client.lookup("to-free")
        return before, after

    before, after = cluster.run_app(app())
    assert after["total_free"] == before["total_free"] + 128 * KiB


def test_alloc_larger_than_cluster_raises_oom(cluster):
    client = cluster.client(1)

    def app():
        with pytest.raises(OutOfMemoryError):
            yield from client.alloc("huge", 10_000 * MiB)

    cluster.run_app(app())


@pytest.mark.parametrize("arg, value", [
    ("size", 0), ("size", -4096), ("stripe_size", 0), ("stripe_size", -64),
    ("replication", 0), ("replication", -1)])
def test_alloc_rejects_a_non_positive_argument_by_name(cluster, arg, value):
    """Zero used to mean the default, and a negative value failed deep in
    placement or validation with an untyped remote error."""
    client = cluster.client(1)
    name = f"bad-{arg}{value}"
    args = {"size": 4096, arg: value}

    def app():
        with pytest.raises(AllocationError,
                           match=rf"\b{arg} must be positive") as caught:
            yield from client.alloc(name, **args)
        assert caught.type is AllocationError
        with pytest.raises(RegionNotFoundError):
            yield from client.lookup(name)

    cluster.run_app(app())


def test_atomics_shared_counter_across_clients(cluster):
    c0, c1 = cluster.client(0), cluster.client(1)

    def app():
        region = yield from c0.alloc("counter", 4 * KiB)
        m0 = yield from c0.map(region)
        m1 = yield from c1.map("counter")
        olds = []
        olds.append((yield from m0.faa(0, 10)))
        olds.append((yield from m1.faa(0, 10)))
        olds.append((yield from sync_cas(m0, 0, 20, 777)))
        value = yield from m0.read(0, 8)
        return olds, int.from_bytes(value, "little")

    olds, value = cluster.run_app(app())
    assert olds == [0, 10, 20]
    assert value == 777


def test_atomic_alignment_enforced(cluster):
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("misaligned", 4 * KiB)
        mapping = yield from client.map(region)
        with pytest.raises(BoundsError):
            yield from mapping.faa(3, 1)

    cluster.run_app(app())


def test_read_out_of_bounds_raises(cluster):
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("tiny", 4 * KiB)
        mapping = yield from client.map(region)
        with pytest.raises(BoundsError):
            yield from mapping.read(0, 8 * KiB)

    cluster.run_app(app())


def test_unmapped_mapping_rejects_io(cluster):
    from repro.core import NotMappedError

    client = cluster.client(1)

    def app():
        region = yield from client.alloc("unmapped", 4 * KiB)
        mapping = yield from client.map(region)
        mapping.unmap()
        with pytest.raises(NotMappedError):
            yield from mapping.read(0, 8)

    cluster.run_app(app())


def test_zero_copy_read_into_write_from(cluster):
    client = cluster.client(2)

    def app():
        region = yield from client.alloc("zerocopy", 128 * KiB)
        mapping = yield from client.map(region)
        local = yield from client.alloc_local(128 * KiB)
        blob = random.Random(2).randbytes(100 * KiB)
        local.buffer.write(0, blob)
        yield from mapping.write_from(local, local.addr, 0, len(blob))
        sink = yield from client.alloc_local(128 * KiB)
        yield from mapping.read_into(sink, sink.addr, 0, len(blob))
        return blob, sink.buffer.read(0, len(blob))

    blob, back = cluster.run_app(app())
    assert blob == back


def test_second_map_to_same_servers_is_much_cheaper(cluster):
    client = cluster.client(3)

    def app():
        r1 = yield from client.alloc("map-cost-1", 256 * KiB)
        t0 = cluster.sim.now
        yield from client.map(r1)
        cold = cluster.sim.now - t0
        r2 = yield from client.alloc("map-cost-2", 256 * KiB)
        t1 = cluster.sim.now
        yield from client.map(r2)
        warm = cluster.sim.now - t1
        return cold, warm

    cold, warm = cluster.run_app(app())
    # cold map pays per-server connection setup; warm reuses cached QPs
    assert cold > 5 * warm


def test_barrier_synchronizes_processes(cluster):
    c0, c1 = cluster.client(0), cluster.client(1)
    log = []

    def worker(client, tag, delay):
        yield cluster.sim.timeout(delay)
        yield from client.barrier("b1", 2)
        log.append((tag, cluster.sim.now))

    def app():
        p0 = cluster.spawn(worker(c0, "fast", 0.0))
        p1 = cluster.spawn(worker(c1, "slow", 0.01))
        yield cluster.sim.all_of([p0, p1])

    cluster.run_app(app())
    assert len(log) == 2
    # both released at (essentially) the same instant, after the slow one
    assert abs(log[0][1] - log[1][1]) < 1e-4
    assert min(t for _tag, t in log) >= cluster.boot_time + 0.01


def test_notify_wait(cluster):
    c0, c1 = cluster.client(0), cluster.client(1)
    got = []

    def waiter():
        payload = yield from c1.wait_note("ready")
        got.append(payload)

    def notifier():
        yield cluster.sim.timeout(0.005)
        yield from c0.notify("ready", {"rows": 42})

    def app():
        p0 = cluster.spawn(waiter())
        p1 = cluster.spawn(notifier())
        yield cluster.sim.all_of([p0, p1])

    cluster.run_app(app())
    assert got == [{"rows": 42}]


def test_wire_scale_inflates_transfer_time(cluster):
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("scaled", 128 * KiB)
        mapping = yield from client.map(region)
        scaled_map = yield from client.map(region, wire_scale=64)
        local = yield from client.alloc_local(128 * KiB)
        t0 = cluster.sim.now
        yield from mapping.write_from(local, local.addr, 0, 64 * KiB)
        plain = cluster.sim.now - t0
        t1 = cluster.sim.now
        yield from scaled_map.write_from(local, local.addr, 0, 64 * KiB)
        scaled = cluster.sim.now - t1
        return plain, scaled

    plain, scaled = cluster.run_app(app())
    assert scaled > 10 * plain


@pytest.mark.parametrize("wire_scale", [0, -1])
def test_map_rejects_a_wire_scale_below_one(wire_scale):
    """Regression: 0 raised ``ZeroDivisionError`` from the first op's
    planning, and -1 posted one-byte WRs of negative wire length that
    were replayed as fabric failures until the op gave up."""
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    owner, client = cluster.client(0), cluster.client(1)

    def app():
        yield from owner.alloc("scaled", 4 * KiB)
        calls, posted = client.master_calls, client.nic.ops_posted
        with pytest.raises(RStoreError, match="wire_scale"):
            yield from client.map("scaled", wire_scale=wire_scale)
        # refused before the lookup and before any QP dial
        assert client.master_calls == calls
        assert client.nic.ops_posted == posted
        assert not client._data_qps

    cluster.run_app(app())
