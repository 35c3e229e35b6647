"""Fault injection on the batched data path.

A wire fault inside a doorbell batch errors one work request; RC
ordering flushes everything behind it in the same batch.  The client
must replay only the failed/flushed pieces, leave already-retired ops
untouched, and resolve every future — deterministically under a fixed
seed.
"""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector
from tests.probes import host_count, resolution_order

_N = 64
_OP_BYTES = 2 * KiB


def _run_faulted_batch():
    """One full scenario; returns everything a caller might assert on."""
    faults = FaultInjector(seed=23)
    # faults on the *client's* NIC hit every data QP it owns
    faults.fail_wire(1, start=1.0, duration=30.0, probability=0.2, times=5)
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=4 * KiB),
        server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(1)

    def app():
        yield from client.alloc("faulted-batch", 512 * KiB)
        mapping = yield from client.map("faulted-batch")
        blob = bytes((i * 37 + 11) % 256 for i in range(512 * KiB))
        yield from mapping.write(0, blob)
        # move past the quiet prefix so the batch lands in the window
        yield cluster.sim.timeout(2.0)
        batch = client.batch()
        for i in range(_N):
            yield from batch.read(mapping, i * 8 * KiB, _OP_BYTES)
        yield from batch.flush()
        order = yield from resolution_order(cluster, batch.futures)
        values = yield from batch.wait_all()
        expected = [blob[i * 8 * KiB : i * 8 * KiB + _OP_BYTES]
                    for i in range(_N)]
        attempts = [f._attempts for f in batch.futures]
        return values == expected, order, attempts

    correct, order, attempts = cluster.run_app(app())
    return correct, order, attempts, client.retries, host_count(client, "client.pieces_replayed")


def test_batch_survives_wire_faults():
    correct, order, attempts, retries, replayed = _run_faulted_batch()
    # every byte of every op came back right despite the faults
    assert correct
    # the faults really fired and forced replays ...
    assert retries >= 1
    assert replayed >= 1
    assert max(attempts) >= 1
    # ... but ops retired before the error were never replayed
    assert attempts.count(0) > 0
    # every future resolved
    assert sorted(index for index, _when in order) == list(range(_N))


def test_faulted_batch_is_deterministic():
    """Two identical runs resolve the futures in the identical order."""
    first = _run_faulted_batch()
    second = _run_faulted_batch()
    assert first == second


def test_replay_backoff_sequence_is_pinned():
    """One, two and three consecutive wire faults on a single read: the
    time to resolution is the doubling backoff (base 20 ms, jittered
    from the client's retry stream, one draw per pause) plus a fixed
    remap.  Pinned from the commit before ``_remap_with_backoff`` moved
    onto ``Backoff``, so a changed delay line or an extra draw shows."""
    faults = FaultInjector(seed=23)
    for n in (1, 2, 3):
        faults.fail_wire(1, start=5.0 * n, duration=4.5, times=n)
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=4 * KiB),
        server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(1)
    sim = cluster.sim

    def app():
        yield from client.alloc("replayed", 64 * KiB)
        mapping = yield from client.map("replayed")
        yield from mapping.write(0, b"x" * 1024)
        deltas = []
        for n in (1, 2, 3):
            yield sim.timeout(5.0 * n + 0.1 - sim.now)
            started, replays = sim.now, client.retries
            yield from mapping.read(0, 1024)
            # one replay round per failed attempt
            assert client.retries - replays == n
            deltas.append(sim.now - started)
        return deltas

    assert cluster.run_app(app()) == pytest.approx(
        [0.5246890741533718, 1.0584300661067871, 1.621521246521107],
        rel=0, abs=1e-12)
