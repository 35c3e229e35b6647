"""Master-side synchronization: barriers and notifications."""

import pytest

from repro.core import RStoreConfig
from repro.cluster import build_cluster
from repro.simnet.config import KiB, MiB


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )


def test_barrier_generations_advance(cluster):
    client = cluster.client(1)

    def app():
        generations = []
        for _round in range(3):
            g = yield from client.barrier("solo", 1)
            generations.append(g)
        return generations

    assert cluster.run_app(app()) == [0, 1, 2]


def test_barrier_size_mismatch_rejected(cluster):
    c0, c1 = cluster.client(0), cluster.client(1)
    sim = cluster.sim

    def first():
        yield from c0.barrier("mismatch", 2)

    def second():
        from repro.core import RStoreError

        yield sim.timeout(0.001)
        with pytest.raises(RStoreError, match="mismatch"):
            yield from c1.barrier("mismatch", 3)
        # release the first waiter so the test simulation drains
        yield from c1.barrier("mismatch", 2)

    def app():
        p1 = cluster.spawn(first())
        p2 = cluster.spawn(second())
        yield sim.all_of([p1, p2])

    cluster.run_app(app())


@pytest.mark.parametrize("count", [0, -2])
def test_barrier_rejects_a_count_below_one(cluster, count):
    from repro.core import RStoreError

    client = cluster.client(1)

    def app():
        with pytest.raises(RStoreError, match="count"):
            yield from client.barrier(f"empty{count}", count)

    cluster.run_app(app())
    assert f"empty{count}" not in cluster.master._barriers


def test_notify_before_wait_is_not_lost(cluster):
    client = cluster.client(2)

    def app():
        yield from client.notify("early-note", 123)
        yield cluster.sim.timeout(0.01)
        value = yield from client.wait_note("early-note")
        return value

    assert cluster.run_app(app()) == 123


def test_multiple_waiters_all_woken(cluster):
    sim = cluster.sim
    got = []

    def waiter(host):
        value = yield from cluster.client(host).wait_note("broadcast")
        got.append((host, value))

    def app():
        procs = [cluster.spawn(waiter(h)) for h in (0, 1, 2)]
        yield sim.timeout(0.005)
        yield from cluster.client(3).notify("broadcast", "go")
        yield sim.all_of(procs)

    cluster.run_app(app())
    assert sorted(got) == [(0, "go"), (1, "go"), (2, "go")]
