"""The asynchronous data path: futures, IoBatch, doorbell batching."""

import pytest

from repro.cluster import build_cluster
from repro.core import NotMappedError, RStoreConfig
from repro.simnet.config import KiB, MiB
from tests.probes import sync_cas


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )


def test_async_write_then_read(cluster):
    client = cluster.client(1)

    def app():
        yield from client.alloc("async-rt", 256 * KiB)
        mapping = yield from client.map("async-rt")
        batch = client.batch()
        wfut = yield from batch.write(mapping, 4096, b"future-bytes")
        yield from batch.flush()
        count = yield from wfut.wait()
        rfut = yield from batch.read(mapping, 4096, 12)
        yield from batch.flush()
        data = yield from rfut.wait()
        return count, data

    count, data = cluster.run_app(app())
    assert count == 12
    assert data == b"future-bytes"


def test_future_fields_after_resolution(cluster):
    client = cluster.client(1)

    def app():
        yield from client.alloc("async-fields", 64 * KiB)
        mapping = yield from client.map("async-fields")
        batch = client.batch()
        fut = yield from batch.write(mapping, 0, b"x" * 100)
        yield from batch.flush()
        assert not fut.done
        yield from fut.wait()
        assert fut.done and fut.error is None
        assert fut.value == 100
        # a second wait on a resolved future returns immediately
        again = yield from fut.wait()
        return again

    assert cluster.run_app(app()) == 100


def test_multiple_waiters_on_one_future(cluster):
    client = cluster.client(2)
    sim = cluster.sim

    def app():
        yield from client.alloc("async-waiters", 64 * KiB)
        mapping = yield from client.map("async-waiters")
        yield from mapping.write(0, b"shared-payload")
        batch = client.batch()
        fut = yield from batch.read(mapping, 0, 14)
        yield from batch.flush()
        seen = []

        def waiter(tag):
            value = yield from fut.wait()
            seen.append((tag, value))

        procs = [sim.process(waiter(t)) for t in ("a", "b", "c")]
        yield sim.all_of(procs)
        return seen

    seen = cluster.run_app(app())
    assert sorted(seen) == [(t, b"shared-payload") for t in ("a", "b", "c")]


def test_batched_reads_overlap_round_trips(cluster):
    """A flushed batch overlaps round trips the sync loop serializes."""
    client = cluster.client(2)
    n, size = 16, 512

    def app():
        yield from client.alloc("async-overlap", 256 * KiB)
        mapping = yield from client.map("async-overlap")
        blob = bytes(i % 251 for i in range(256 * KiB))
        yield from mapping.write(0, blob)

        t0 = cluster.sim.now
        sync = []
        for i in range(n):
            sync.append((yield from mapping.read(i * 16 * KiB, size)))
        sync_elapsed = cluster.sim.now - t0

        t1 = cluster.sim.now
        batch = client.batch()
        for i in range(n):
            yield from batch.read(mapping, i * 16 * KiB, size)
        yield from batch.flush()
        values = yield from batch.wait_all()
        batched_elapsed = cluster.sim.now - t1
        return sync, values, sync_elapsed, batched_elapsed

    sync, values, sync_elapsed, batched_elapsed = cluster.run_app(app())
    assert values == sync
    assert batched_elapsed * 3 < sync_elapsed


def test_doorbells_fewer_than_ops(cluster):
    """One flush rings the NIC once for a whole same-QP batch."""
    client = cluster.client(3)
    nic = client.nic

    def app():
        yield from client.alloc("async-bell", 256 * KiB)
        mapping = yield from client.map("async-bell")
        yield from mapping.write(0, bytes(64 * KiB))
        bells0, ops0 = nic.doorbells_rung, nic.ops_posted
        batch = client.batch()
        for i in range(32):
            # same stripe, non-adjacent: 32 distinct WRs on one QP
            yield from batch.read(mapping, i * 512, 64)
        posted = yield from batch.flush()
        yield from batch.wait_all()
        return posted, nic.doorbells_rung - bells0, nic.ops_posted - ops0

    posted, doorbells, ops = cluster.run_app(app())
    assert posted == 32
    assert ops == 32
    assert doorbells < ops
    assert doorbells == 1  # whole batch fits one doorbell window


def test_adjacent_pieces_coalesce(cluster):
    """Contiguous same-direction ops merge into a single work request."""
    client = cluster.client(0)

    def app():
        yield from client.alloc("async-merge", 256 * KiB)
        mapping = yield from client.map("async-merge")
        blob = bytes(range(256)) * 16
        yield from mapping.write(0, blob)
        local = yield from client.alloc_local(4 * KiB)
        batch = client.batch()
        futs = [
            batch.read_into(mapping, local, local.addr + i * 256,
                            i * 256, 256)
            for i in range(16)
        ]
        posted = yield from batch.flush()
        yield from batch.wait_all()
        assert all(f.done and f.error is None for f in futs)
        return posted, local.buffer.read(0, 4 * KiB), blob

    posted, data, blob = cluster.run_app(app())
    assert posted == 1  # sixteen adjacent reads rode one wire op
    assert data == blob


def test_batched_atomics_complete_in_post_order(cluster):
    """RC in-order execution: batched FAAs observe sequential old values."""
    client = cluster.client(1)

    def app():
        yield from client.alloc("async-faa", 4 * KiB)
        mapping = yield from client.map("async-faa")
        batch = client.batch()
        for _ in range(8):
            batch.faa(mapping, 0, 1)
        yield from batch.flush()
        olds = yield from batch.wait_all()
        value = yield from mapping.read(0, 8)
        return olds, int.from_bytes(value, "little")

    olds, value = cluster.run_app(app())
    assert olds == list(range(8))
    assert value == 8


def test_batch_spans_mappings(cluster):
    """One IoBatch mixes ops against different regions and op kinds."""
    client = cluster.client(3)

    def app():
        yield from client.alloc("async-a", 64 * KiB)
        yield from client.alloc("async-b", 64 * KiB)
        ma = yield from client.map("async-a")
        mb = yield from client.map("async-b")
        batch = client.batch()
        yield from batch.write(ma, 0, b"alpha")
        yield from batch.write(mb, 0, b"bravo")
        batch.faa(ma, 1024, 5)
        yield from batch.flush()
        results = yield from batch.wait_all()
        a = yield from ma.read(0, 5)
        b = yield from mb.read(0, 5)
        return results, a, b

    results, a, b = cluster.run_app(app())
    assert results == [5, 5, 0]
    assert (a, b) == (b"alpha", b"bravo")


def test_wait_all_returns_queue_order(cluster):
    """Values come back in submission order even when sizes differ."""
    client = cluster.client(2)

    def app():
        yield from client.alloc("async-order", 256 * KiB)
        mapping = yield from client.map("async-order")
        yield from mapping.write(0, bytes([7]) * (128 * KiB))
        batch = client.batch()
        # a large read first: it finishes *after* the small ones
        yield from batch.read(mapping, 0, 100 * KiB)
        for i in range(4):
            yield from batch.read(mapping, i * 64, 16)
        yield from batch.flush()
        values = yield from batch.wait_all()
        return [len(v) for v in values]

    assert cluster.run_app(app()) == [100 * KiB, 16, 16, 16, 16]


def test_unmap_fails_inflight_async_ops(cluster):
    client = cluster.client(2)

    def app():
        yield from client.alloc("async-unmap", 256 * KiB)
        mapping = yield from client.map("async-unmap")
        batch = client.batch()
        fut = yield from batch.read(mapping, 0, 128 * KiB)
        yield from batch.flush()
        assert not fut.done
        mapping.unmap()
        # the failure is delivered at the unmap instant, not when the
        # orphaned completions eventually drain
        assert fut.done
        with pytest.raises(NotMappedError):
            yield from fut.wait()
        # late completions for the in-flight WRs are ignored quietly
        yield cluster.sim.timeout(0.05)
        return fut.error

    err = cluster.run_app(app())
    assert "unmapped with the operation in flight" in str(err)


def test_zero_length_ops_resolve_immediately(cluster):
    client = cluster.client(0)

    def app():
        yield from client.alloc("async-zero", 64 * KiB)
        mapping = yield from client.map("async-zero")
        batch = client.batch()
        rfut = yield from batch.read(mapping, 0, 0)
        wfut = yield from batch.write(mapping, 0, b"")
        posted = yield from batch.flush()
        values = yield from batch.wait_all()
        return posted, rfut.done, wfut.done, values

    posted, rdone, wdone, values = cluster.run_app(app())
    assert posted == 0
    assert rdone and wdone
    assert values == [b"", 0]


def test_blocking_wrappers_unchanged(cluster):
    """The sync API rides the async path but keeps its old contract."""
    client = cluster.client(1)

    def app():
        yield from client.alloc("async-compat", 64 * KiB)
        mapping = yield from client.map("async-compat")
        n = yield from mapping.write(100, b"classic")
        data = yield from mapping.read(100, 7)
        old = yield from mapping.faa(0, 3)
        swapped = yield from sync_cas(mapping, 0, 3, 42)
        final = yield from mapping.read(0, 8)
        return n, data, old, swapped, int.from_bytes(final, "little")

    assert cluster.run_app(app()) == (7, b"classic", 0, 3, 42)
