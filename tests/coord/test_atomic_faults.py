"""Atomics under fault injection: the exactly-once story.

A completion error on a one-sided atomic is ambiguous — the remote NIC
may or may not have applied the op — so ``Mapping.faa``/``cas`` raise
instead of replaying.  These tests pin the two cases:

* *launch*-side wire faults never reach the remote word, so app-level
  retries keep a counter exact (N clients x M increments == N*M);
* an *ack*-side fault applies the op once and loses the completion —
  the op raises, and the count stays 1 (no silent double-apply).
"""

import pytest

from repro.cluster import build_cluster
from repro.coord import AtomicCounter, RemoteLock
from repro.coord.base import read_word, write_word
from repro.core import RegionUnavailableError, RStoreConfig
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector


def fresh_cluster(faults=None):
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
        faults=faults,
    )


def retrying_increment(counter, limit=20):
    """App-level retry loop (generator): re-issue the FAA only on the
    non-ambiguous path — each raise here came from a launch-side fault
    that provably applied nothing."""
    for _attempt in range(limit):
        try:
            yield from counter.increment()
            return
        except RegionUnavailableError:
            continue
    raise AssertionError("increment never succeeded")


def test_counter_exact_under_launch_wire_faults():
    """3 clients x 20 increments through a storm of completion errors
    still counts to exactly 60 — wire faults before launch never mutate
    the remote word, so retries cannot double-apply."""
    faults = FaultInjector(seed=11)
    faults.fail_wire(1, start=0.0, duration=10.0, probability=0.25)
    faults.fail_wire(2, start=0.0, duration=10.0, probability=0.25)
    cluster = fresh_cluster(faults)
    sim = cluster.sim
    workers, rounds = [1, 2, 3], 20

    def setup():
        yield from AtomicCounter.create(cluster.client(0), "exact")

    cluster.run_app(setup())

    def worker(host):
        counter = yield from AtomicCounter.open(cluster.client(host), "exact")
        for _ in range(rounds):
            yield from retrying_increment(counter)

    def app():
        procs = [cluster.spawn(worker(h)) for h in workers]
        yield sim.all_of(procs)
        counter = yield from AtomicCounter.open(cluster.client(0), "exact")
        return (yield from counter.read())

    assert cluster.run_app(app()) == len(workers) * rounds
    # the seed guarantees the storm actually fired
    assert faults.injected["wire"] > 0


def test_ack_fault_raises_and_applies_exactly_once():
    """Ack-side fault: the FAA lands remotely, the completion is lost.
    The default surfaces the ambiguity as an error and does NOT replay
    — the counter must read 1, not 0 and not 2."""
    faults = FaultInjector(seed=5)
    faults.fail_wire(1, start=0.0, duration=10.0, times=1, where="ack")
    cluster = fresh_cluster(faults)

    def app():
        counter = yield from AtomicCounter.create(cluster.client(2), "once")
        mine = yield from AtomicCounter.open(cluster.client(1), "once")
        with pytest.raises(RegionUnavailableError, match="may have applied"):
            yield from mine.increment()
        return (yield from counter.read())

    assert cluster.run_app(app()) == 1
    assert faults.injected["wire"] == 1


def test_lock_self_verifies_through_wire_faults():
    """A lock op whose CAS completion is lost reads the word back to
    learn the truth (the token names the holder), so mutual exclusion
    holds — and no acquire or release is lost — through a storm of
    both launch- and ack-side faults."""
    faults = FaultInjector(seed=13)
    faults.fail_wire(1, start=0.0, duration=10.0, probability=0.2)
    faults.fail_wire(2, start=0.0, duration=10.0, probability=0.2,
                     where="ack")
    cluster = fresh_cluster(faults)
    sim = cluster.sim
    workers, rounds = [1, 2, 3], 8

    def setup():
        yield from RemoteLock.create(cluster.client(0), "stormy")
        yield from cluster.client(0).alloc("stormy-data", 8)

    cluster.run_app(setup())

    def worker(host):
        client = cluster.client(host)
        lock = yield from RemoteLock.open(client, "stormy")
        data = yield from client.map("stormy-data")
        for _ in range(rounds):
            yield from lock.acquire()
            value = yield from read_word(data, 0)
            yield sim.timeout(2e-6)
            yield from write_word(data, 0, value + 1)
            yield from lock.release()

    def app():
        procs = [cluster.spawn(worker(h)) for h in workers]
        yield sim.all_of(procs)
        data = yield from cluster.client(0).map("stormy-data")
        return (yield from read_word(data, 0))

    assert cluster.run_app(app()) == len(workers) * rounds
    assert faults.injected["wire"] > 0


def test_server_death_mid_atomic_raises():
    """Atomic words are unreplicated; losing the hosting server makes
    the primitive unavailable rather than silently wrong."""
    cluster = build_cluster(
        num_machines=4, config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB, server_hosts=[2, 3])
    client = cluster.client(1)

    def app():
        counter = yield from AtomicCounter.create(client, "doomed")
        yield from counter.increment()
        cluster.kill_server(counter.mapping.desc.stripes[0].host_id)
        with pytest.raises(RegionUnavailableError):
            yield from counter.increment()

    cluster.run_app(app())
