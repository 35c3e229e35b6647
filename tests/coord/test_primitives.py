"""Coordination primitives: counters, locks, seqlocks — happy paths
and protocol-misuse errors, all on one shared module cluster."""

import random

import pytest

from repro.cluster import build_cluster
from repro.coord import AtomicCounter, Backoff, CoordError, RemoteLock
from repro.coord.base import read_word, write_word
from repro.coord.seqlock import mint_token
from repro.core import RStoreConfig
from repro.core.errors import (
    DeadlineExceededError,
    RetryBudgetExceededError,
)
from repro.simnet.config import KiB, MiB
from tests.probes import count_all, read_record, record, write_record


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )


# -- AtomicCounter -----------------------------------------------------------


def test_counter_add_read(cluster):
    c1, c2 = cluster.client(1), cluster.client(2)

    def app():
        counter = yield from AtomicCounter.create(c1, "basic")
        other = yield from AtomicCounter.open(c2, "basic")
        assert (yield from counter.read()) == 0
        assert (yield from counter.add(10)) == 10
        assert (yield from counter.add(5)) == 15
        assert (yield from other.increment()) == 16
        assert (yield from other.add(4)) == 20
        assert (yield from counter.read()) == 20

    cluster.run_app(app())


def test_counter_concurrent_increments_exact(cluster):
    sim = cluster.sim
    workers, rounds = 3, 25

    def setup():
        yield from AtomicCounter.create(cluster.client(0), "exact")

    cluster.run_app(setup())

    def worker(host):
        counter = yield from AtomicCounter.open(cluster.client(host), "exact")
        for _ in range(rounds):
            yield from counter.increment()

    def app():
        procs = [cluster.spawn(worker(h)) for h in range(1, workers + 1)]
        yield sim.all_of(procs)
        counter = yield from AtomicCounter.open(cluster.client(0), "exact")
        return (yield from counter.read())

    assert cluster.run_app(app()) == workers * rounds


# -- RemoteLock --------------------------------------------------------------


def test_lock_mutual_exclusion(cluster):
    """N workers do plain (non-atomic) read-modify-writes on a shared
    word under the lock; the count is exact only if the lock excludes."""
    sim = cluster.sim
    workers, rounds = 3, 5
    c0 = cluster.client(0)

    def setup():
        yield from RemoteLock.create(c0, "mutex")
        yield from c0.alloc("mutex-data", 8)

    cluster.run_app(setup())

    def worker(host):
        client = cluster.client(host)
        lock = yield from RemoteLock.open(client, "mutex")
        data = yield from client.map("mutex-data")
        for _ in range(rounds):
            yield from lock.acquire()
            value = yield from read_word(data, 0)
            yield sim.timeout(2e-6)  # widen the race window
            yield from write_word(data, 0, value + 1)
            yield from lock.release()
        return lock

    def app():
        procs = [cluster.spawn(worker(h)) for h in range(1, workers + 1)]
        yield sim.all_of(procs)
        data = yield from c0.map("mutex-data")
        total = yield from read_word(data, 0)
        locks = [p.value for p in procs]
        return total, locks

    total, locks = cluster.run_app(app())
    assert total == workers * rounds
    assert count_all(cluster, "coord.lock.acquisitions") == workers * rounds
    # three spinners on one word must have collided at least once
    assert sum(lock.contended for lock in locks) > 0


def test_lock_try_acquire_and_errors(cluster):
    c1, c2 = cluster.client(1), cluster.client(2)

    def app():
        lock = yield from RemoteLock.create(c1, "try")
        other = yield from RemoteLock.open(c2, "try")
        assert (yield from lock.try_acquire())
        assert not (yield from other.try_acquire())  # held elsewhere
        with pytest.raises(CoordError, match="not reentrant"):
            yield from lock.try_acquire()
        with pytest.raises(CoordError, match="never took"):
            yield from other.release()
        yield from lock.release()
        assert (yield from other.try_acquire())
        yield from other.release()

    cluster.run_app(app())


# -- SeqLock -----------------------------------------------------------------


def test_seqlock_write_read_cycle(cluster):
    c1, c2 = cluster.client(1), cluster.client(2)

    def app():
        rec = yield from record(c1, "record", 64, create=True)
        view = yield from record(c2, "record", 64)
        version = yield from write_record(rec, b"hello".ljust(64, b"\0"))
        assert version == 2  # 0 -> a token -> published 2
        got_version, body = yield from read_record(view)
        assert got_version == 2
        assert body[:5] == b"hello"
        yield from write_record(view, b"world".ljust(64, b"\0"))
        _v, body = yield from read_record(rec)
        assert body[:5] == b"world"

    cluster.run_app(app())


def test_seqlock_lock_publish_abort_protocol(cluster):
    client = cluster.client(1)

    def app():
        rec = yield from record(client, "protocol", 8, create=True)
        version, _ = yield from read_record(rec)
        assert (yield from rec.try_lock(version, mint_token(client)))
        # the word holds a token now: a second CAS from version loses
        assert not (yield from rec.try_lock(version, mint_token(client)))
        yield from rec.abort(version)  # back out, body untouched
        restored, _ = yield from read_record(rec)
        assert restored == version
        with pytest.raises(CoordError, match="odd version"):
            yield from rec.try_lock(version + 1, mint_token(client))
        with pytest.raises(CoordError, match="never locked"):
            # an even word is a version, not a holder's token
            yield from rec.publish(version, b"", version + 2)

    cluster.run_app(app())


def test_seqlock_token_lock_publish(cluster):
    """Lock with a unique odd token, which the word then names; publish
    with the explicit next version."""
    client = cluster.client(1)

    def app():
        rec = yield from record(client, "token", 8, create=True)
        version, _ = yield from read_record(rec)
        token = mint_token(client)
        assert (yield from rec.try_lock(version, token))
        word = yield from read_word(rec.mapping, rec.offset)
        assert word == token  # the word names the holder
        yield from rec.publish(token, b"\x07" * 8, version + 2)
        got, body = yield from read_record(rec)
        assert got == version + 2
        assert body == b"\x07" * 8
        with pytest.raises(CoordError, match="must be odd"):
            yield from rec.try_lock(got, 42)  # even token
        with pytest.raises(CoordError, match="positive even"):
            yield from rec.publish(token, b"", token)

    cluster.run_app(app())


def test_seqlock_no_torn_reads_under_contention(cluster):
    """Writers publish all-same-byte bodies; any snapshot mixing two
    writes would show mixed bytes — optimistic validation must prevent
    that ever being returned."""
    sim = cluster.sim
    body_size = 64
    writes_per_worker = 6
    c0 = cluster.client(0)

    def setup():
        yield from record(c0, "torn", body_size, create=True)

    cluster.run_app(setup())
    done = []

    def writer(host):
        rec = yield from record(cluster.client(host), "torn", body_size)
        for i in range(writes_per_worker):
            fill = bytes([host * 10 + i]) * body_size
            yield from write_record(rec, fill)
        done.append(host)

    def reader():
        rec = yield from record(cluster.client(3), "torn", body_size)
        torn = 0
        while len(done) < 2:
            version, body = yield from read_record(rec)
            assert version % 2 == 0
            if version and len(set(body)) != 1:
                torn += 1
            yield sim.timeout(1e-6)
        return torn

    def app():
        procs = [cluster.spawn(writer(1)), cluster.spawn(writer(2))]
        read_proc = cluster.spawn(reader())
        yield sim.all_of(procs + [read_proc])
        rec = yield from record(c0, "torn", body_size)
        version, _ = yield from read_record(rec)
        return read_proc.value, version

    torn, version = cluster.run_app(app())
    assert torn == 0
    # every publish bumps the version by exactly 2
    assert version == 2 * 2 * writes_per_worker


# -- Backoff bounds (deadline vs budget) --------------------------------------


def test_backoff_budget_exhaustion_is_typed(cluster):
    """A drained attempt budget raises RetryBudgetExceededError — which
    is itself a DeadlineExceededError, so existing handlers keep
    working."""
    client = cluster.client(1)

    def app():
        backoff = Backoff.for_client(client, "budget-test", budget=3)
        for _ in range(3):
            yield from backoff.pause()
        with pytest.raises(RetryBudgetExceededError, match="budget of 3"):
            yield from backoff.pause()

    cluster.run_app(app())
    assert issubclass(RetryBudgetExceededError, DeadlineExceededError)


def test_backoff_deadline_outranks_budget(cluster):
    """Regression: a retry loop that inherits a caller deadline must
    fail with the *typed* DeadlineExceededError, never degrade into a
    bare budget exhaustion — even when the budget is already drained
    too."""
    sim = cluster.sim

    def app():
        backoff = Backoff(sim, random.Random(1), deadline=sim.now + 10e-6,
                          budget=0)
        # the budget is exhausted from the start, but the deadline has
        # not passed yet: budget exhaustion surfaces first...
        with pytest.raises(RetryBudgetExceededError):
            yield from backoff.pause()
        yield sim.timeout(20e-6)
        # ...and once the deadline passes it outranks the budget
        try:
            yield from backoff.pause()
        except RetryBudgetExceededError:
            raise AssertionError(
                "a passed deadline degraded into a budget error"
            )
        except DeadlineExceededError:
            pass
        else:
            raise AssertionError("pause() ignored the passed deadline")

    cluster.run_app(app())


def test_backoff_never_sleeps_past_the_deadline(cluster):
    sim = cluster.sim

    def app():
        deadline = sim.now + 50e-6
        backoff = Backoff(sim, random.Random(1), deadline=deadline,
                          base_s=1.0, max_s=10.0)
        yield from backoff.pause()  # a 1 s step must clip to the deadline
        assert sim.now <= deadline + 1e-12
        yield sim.timeout(60e-6)
        with pytest.raises(DeadlineExceededError):
            yield from backoff.pause()

    cluster.run_app(app())
