"""SenseBarrier: release correctness across many reused rounds."""

import pytest

from repro.cluster import build_cluster
from repro.coord import CoordError, SenseBarrier
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB
from tests.probes import count_all


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )


def test_barrier_releases_no_one_early(cluster):
    """Across R reused rounds, every worker checks at release time that
    all peers reached the round — the defining barrier property."""
    sim = cluster.sim
    workers, rounds = 4, 6
    progress = [0] * workers

    def setup():
        yield from SenseBarrier.create(
            cluster.client(0), "rounds", parties=workers
        )

    cluster.run_app(setup())

    def worker(rank):
        client = cluster.client(rank)
        barrier = yield from SenseBarrier.open(
            client, "rounds", parties=workers
        )
        for r in range(1, rounds + 1):
            # stagger arrivals so fast workers really have to wait
            yield sim.timeout(rank * 3e-6)
            progress[rank] = r
            yield from barrier.wait()
            assert all(p >= r for p in progress), (
                f"rank {rank} released from round {r} early: {progress}"
            )
        return barrier

    def app():
        procs = [cluster.spawn(worker(rank)) for rank in range(workers)]
        yield sim.all_of(procs)
        return [p.value for p in procs]

    barriers = cluster.run_app(app())
    assert all(b.generation == rounds for b in barriers)
    # the stagger forces early arrivers to poll the sense word
    assert count_all(cluster, "coord.barrier.spins") > 0


def test_single_party_barrier_is_a_noop(cluster):
    client = cluster.client(1)

    def app():
        barrier = yield from SenseBarrier.create(client, "solo", parties=1)
        for _ in range(3):
            yield from barrier.wait()
        return barrier.generation

    assert cluster.run_app(app()) == 3


def test_barrier_rejects_bad_party_counts(cluster):
    client = cluster.client(1)

    def app():
        with pytest.raises(CoordError, match="at least one party"):
            yield from SenseBarrier.create(client, "bad", parties=0)

    cluster.run_app(app())


def test_oversubscribed_barrier_detected(cluster):
    """More simultaneous waiters than parties is a protocol bug the
    count word exposes instead of silently misbehaving."""
    sim = cluster.sim

    def setup():
        yield from SenseBarrier.create(cluster.client(0), "over", parties=2)

    cluster.run_app(setup())
    errors = []

    def waiter(host, arrive_last):
        barrier = yield from SenseBarrier.open(
            cluster.client(host), "over", parties=2
        )
        if arrive_last:
            # arrive after both legitimate parties FAA'd but before the
            # last arriver's reset lands (reset costs two RTT writes)
            yield sim.timeout(2e-7)
        try:
            yield from barrier.wait()
        except CoordError as exc:
            errors.append(exc)

    def app():
        procs = [
            cluster.spawn(waiter(1, False)),
            cluster.spawn(waiter(2, False)),
            cluster.spawn(waiter(3, True)),
        ]
        yield sim.all_of(procs)

    cluster.run_app(app())
    assert len(errors) == 1
    assert "too many handles" in str(errors[0])
