"""The seeded-race matrix: RSan must catch every planted race.

Each test builds a small sanitized cluster, drives a deliberately
unsynchronized (or deliberately synchronized) access pattern from two
clients, and asserts on ``rsan.races``: planted races are reported
**exactly once** with both access sites, and properly synchronized
variants of the same pattern stay silent.

Why a sequential driver still races: happens-before only flows through
real synchronization.  Client 1's last control-path call (its ``map``)
precedes its writes, so nothing it later does is published to client 2
— issuing the accesses one after another from one test generator does
not order them.
"""

import sys

import pytest

from repro.cluster import build_cluster
from repro.coord import RemoteLock, SenseBarrier
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.sanitize import rsan as rsan_module
from repro.sanitize import rsan_for
from repro.simnet.config import KiB, MiB
from tests.probes import read_record, record, write_record


@pytest.fixture
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=8 * KiB, sanitize=True),
        server_capacity=16 * MiB,
    )


def _two_mappings(cluster, size=64 * KiB, name="race"):
    c1, c2 = cluster.client(1), cluster.client(2)
    yield from c1.alloc(name, size)
    m1 = yield from c1.map(name)
    m2 = yield from c2.map(name)
    return c1, c2, m1, m2


def test_write_write_race_reported_once_with_both_sites(cluster):
    rsan = rsan_for(cluster.sim)

    def app():
        _c1, _c2, m1, m2 = yield from _two_mappings(cluster)
        yield from m1.write(0, b"a" * 100)
        yield from m2.write(50, b"b" * 100)  # overlaps, no sync
        return True

    cluster.run_app(app())
    assert len(rsan.races) == 1, rsan.report()
    race = rsan.races[0]
    assert {race.first.kind, race.second.kind} == {"write"}
    assert {race.first.actor, race.second.actor} == {1, 2}
    sites = {race.first.site, race.second.site}
    assert all("test_races.py" in site for site in sites)
    assert len(sites) == 2  # two distinct source lines


def test_striped_race_still_reported_exactly_once(cluster):
    """One logical race spanning several stripes/hosts is one report."""
    rsan = rsan_for(cluster.sim)

    def app():
        # 40 KiB writes at 8 KiB stripes span 5+ stripes across hosts
        _c1, _c2, m1, m2 = yield from _two_mappings(cluster)
        yield from m1.write(0, b"a" * 40_000)
        yield from m2.write(1_000, b"b" * 40_000)
        return True

    cluster.run_app(app())
    assert len(rsan.races) == 1, rsan.report()


def test_read_write_race_under_missing_barrier(cluster):
    rsan = rsan_for(cluster.sim)

    def app():
        _c1, _c2, m1, m2 = yield from _two_mappings(cluster)
        yield from m1.write(64, b"x" * 64)
        yield from m2.read(64, 64)  # nothing orders this after the write
        return True

    cluster.run_app(app())
    assert len(rsan.races) == 1, rsan.report()
    kinds = {rsan.races[0].first.kind, rsan.races[0].second.kind}
    assert kinds == {"read", "write"}


def test_barrier_orders_the_same_read_write(cluster):
    """The same pattern with a barrier between the phases is silent."""
    rsan = rsan_for(cluster.sim)
    sim = cluster.sim

    def writer(c1, m1, barrier):
        yield from m1.write(64, b"x" * 64)
        yield from barrier.wait()

    def reader(c2, m2, barrier):
        yield from barrier.wait()
        data = yield from m2.read(64, 64)
        assert data == b"x" * 64

    def app():
        c1, c2, m1, m2 = yield from _two_mappings(cluster)
        b1 = yield from SenseBarrier.create(c1, "phase", parties=2)
        b2 = yield from SenseBarrier.open(c2, "phase", parties=2)
        procs = [sim.process(writer(c1, m1, b1)),
                 sim.process(reader(c2, m2, b2))]
        yield sim.all_of(procs)
        return True

    cluster.run_app(app())
    assert rsan.races == [], rsan.report()


def test_faa_vs_plain_write_race(cluster):
    rsan = rsan_for(cluster.sim)

    def app():
        _c1, _c2, m1, m2 = yield from _two_mappings(cluster)
        yield from m1.faa(0, 1)        # raw atomic on word 0
        yield from m2.write(0, b"\x00" * 8)  # plain write, same word
        return True

    cluster.run_app(app())
    assert len(rsan.races) == 1, rsan.report()
    kinds = {rsan.races[0].first.kind, rsan.races[0].second.kind}
    assert kinds == {"atomic", "write"}


def test_atomic_atomic_is_not_a_race(cluster):
    """Concurrent FAAs serialize in the remote NIC: never a race."""
    rsan = rsan_for(cluster.sim)

    def app():
        _c1, _c2, m1, m2 = yield from _two_mappings(cluster)
        yield from m1.faa(0, 1)
        yield from m2.faa(0, 1)
        return True

    cluster.run_app(app())
    assert rsan.races == [], rsan.report()


def test_lock_protected_writes_are_silent(cluster):
    rsan = rsan_for(cluster.sim)

    def app():
        c1, c2, m1, m2 = yield from _two_mappings(cluster)
        lock1 = yield from RemoteLock.create(c1, "mutex")
        lock2 = yield from RemoteLock.open(c2, "mutex")
        yield from lock1.acquire()
        yield from m1.write(0, b"a" * 100)
        yield from lock1.release()
        yield from lock2.acquire()
        yield from m2.write(50, b"b" * 100)
        yield from lock2.release()
        return True

    cluster.run_app(app())
    assert rsan.races == [], rsan.report()


def test_future_dropped_under_lock_still_races(cluster):
    """A lock release does NOT cover an op nobody waited on.

    This is the dynamic twin of repro-lint RL003: the release
    publishes only the *acked* watermark, so a batched write whose
    future was not awaited before ``release()`` stays concurrent with
    the next holder's accesses — and is reported.
    """
    rsan = rsan_for(cluster.sim)

    def app():
        c1, c2, m1, m2 = yield from _two_mappings(cluster)
        lock1 = yield from RemoteLock.create(c1, "mutex")
        lock2 = yield from RemoteLock.open(c2, "mutex")
        yield from lock1.acquire()
        batch = c1.batch()
        fut = yield from batch.write(m1, 0, b"a" * 100)
        yield from batch.flush()
        yield from lock1.release()  # BUG: fut not awaited
        yield from lock2.acquire()
        yield from m2.write(50, b"b" * 100)
        yield from lock2.release()
        yield from fut.wait()  # drained after the damage is done
        return True

    cluster.run_app(app())
    assert len(rsan.races) == 1, rsan.report()


def test_future_waited_under_lock_is_silent(cluster):
    """The fixed variant: wait before release, and the race is gone."""
    rsan = rsan_for(cluster.sim)

    def app():
        c1, c2, m1, m2 = yield from _two_mappings(cluster)
        lock1 = yield from RemoteLock.create(c1, "mutex")
        lock2 = yield from RemoteLock.open(c2, "mutex")
        yield from lock1.acquire()
        batch = c1.batch()
        fut = yield from batch.write(m1, 0, b"a" * 100)
        yield from batch.flush()
        yield from fut.wait()
        yield from lock1.release()
        yield from lock2.acquire()
        yield from m2.write(50, b"b" * 100)
        yield from lock2.release()
        return True

    cluster.run_app(app())
    assert rsan.races == [], rsan.report()


@pytest.mark.parametrize("lookup", ["get", "multi_get"])
def test_value_found_in_a_table_orders_the_payload_it_announces(cluster,
                                                               lookup):
    """Publish-then-discover: client 1 writes a payload and announces it
    with ``put``; client 2 finds the announcement and reads the payload.
    A validated slot read joins the version's publisher, whichever
    lookup found it — ``multi_get`` used to read slots outside the
    SeqLock's exemption and never acquired the version it validated."""
    rsan = rsan_for(cluster.sim)

    def app():
        c1, c2, m1, m2 = yield from _two_mappings(cluster, name="payload")
        table = yield from RKVStore.create(c1, "announce", slots=16)
        view = yield from RKVStore.open(c2, "announce")
        yield from m1.write(0, b"p" * 100)
        yield from table.put(b"ready", b"payload@0")
        if lookup == "get":
            found = yield from view.get(b"ready")
        else:
            (found,) = yield from view.multi_get([b"ready"])
        assert found == b"payload@0"
        return (yield from m2.read(0, 100))

    assert cluster.run_app(app()) == b"p" * 100
    assert rsan.races == [], rsan.report()


def test_same_client_never_races_itself(cluster):
    rsan = rsan_for(cluster.sim)

    def app():
        c1 = cluster.client(1)
        yield from c1.alloc("solo", 64 * KiB)
        m1 = yield from c1.map("solo")
        yield from m1.write(0, b"a" * 100)
        yield from m1.write(50, b"b" * 100)
        data = yield from m1.read(0, 150)
        assert data == b"a" * 50 + b"b" * 100
        return True

    cluster.run_app(app())
    assert rsan.races == [], rsan.report()


def test_report_formats_both_sites(cluster):
    rsan = rsan_for(cluster.sim)

    def app():
        _c1, _c2, m1, m2 = yield from _two_mappings(cluster)
        yield from m1.write(0, b"a" * 16)
        yield from m2.write(0, b"b" * 16)
        return True

    cluster.run_app(app())
    text = rsan.report()
    assert "1 data race(s)" in text
    assert text.count("test_races.py") == 2
    assert "write by client 1" in text and "write by client 2" in text



def test_site_is_the_innermost_app_line_as_dir_file_line(cluster):
    """A site is exactly ``dir/file.py:line`` of the app line that
    issued the op, found through ``yield from`` helpers above it and
    the client/coord/rdma plumbing frames below it."""
    rsan = rsan_for(cluster.sim)
    lines = []

    def issue(mapping, payload):
        lines.append(sys._getframe().f_lineno + 1)
        yield from mapping.write(0, payload)

    def app():
        _c1, _c2, m1, m2 = yield from _two_mappings(cluster)
        yield from issue(m1, b"a" * 16)
        yield from issue(m2, b"b" * 16)
        return True

    cluster.run_app(app())
    assert len(rsan.races) == 1, rsan.report()
    race = rsan.races[0]
    assert lines[0] == lines[1]
    assert race.first.site == race.second.site == (
        f"sanitize/test_races.py:{lines[0]}")


def test_an_exempt_op_walks_no_stack_for_its_site(cluster, monkeypatch):
    """Exempt accesses are never recorded, so a SeqLock read's READs
    must not pay for finding a call site nobody will print."""

    def no_site():
        raise AssertionError("call site captured for an exempt op")

    def app():
        rec = yield from record(cluster.client(1), "quiet", 64, create=True)
        yield from write_record(rec, b"q" * 64)
        with monkeypatch.context() as patch:
            patch.setattr(rsan_module, "_site_of", no_site)
            return (yield from read_record(rec))

    assert cluster.run_app(app()) == (2, b"q" * 64)
    assert rsan_for(cluster.sim).races == []
