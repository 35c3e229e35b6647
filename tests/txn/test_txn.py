"""The OCC transaction runtime: commit, conflict, abort, bounds."""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import (
    DeadlineExceededError,
    RetryBudgetExceededError,
)
from repro.datapath.ops import hash64 as _hash64
from repro.kv import KvFullError, RKVStore
from repro.simnet.config import KiB, MiB
from repro.txn import TxnConflictError, TxnMisuseError


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )


def make_store(cluster, name, slots=256, **kw):
    client = cluster.client(1)

    def setup():
        return (yield from RKVStore.create(client, name, slots, **kw))

    return cluster.run_app(setup())


# -- commits ------------------------------------------------------------------


def test_multi_key_commit_is_atomic_and_visible(cluster):
    store = make_store(cluster, "commit")

    def app():
        yield from store.put(b"a", b"100")
        yield from store.put(b"b", b"200")
        runtime = store.txn()

        def transfer(txn):
            a = int((yield from txn.get(store, b"a")))
            b = int((yield from txn.get(store, b"b")))
            yield from txn.put(store, b"a", str(a - 30).encode())
            yield from txn.put(store, b"b", str(b + 30).encode())
            return a + b

        total = yield from runtime.run(transfer)
        a = yield from store.get(b"a")
        b = yield from store.get(b"b")
        return total, a, b, runtime.commits, runtime.aborts

    total, a, b, commits, aborts = cluster.run_app(app())
    assert (total, a, b) == (300, b"70", b"230")
    assert (commits, aborts) == (1, 0)


def test_read_your_writes_insert_and_delete(cluster):
    store = make_store(cluster, "ryw")

    def app():
        yield from store.put(b"old", b"1")
        runtime = store.txn()

        def mixed(txn):
            yield from txn.put(store, b"new", b"2")
            assert (yield from txn.get(store, b"new")) == b"2"
            assert (yield from txn.delete(store, b"old"))
            assert (yield from txn.get(store, b"old")) is None
            # deleting our own insert cancels it
            assert (yield from txn.delete(store, b"new"))
            assert not (yield from txn.delete(store, b"missing"))
            yield from txn.put(store, b"back", b"3")

        yield from runtime.run(mixed)
        return (
            (yield from store.get(b"old")),
            (yield from store.get(b"new")),
            (yield from store.get(b"back")),
        )

    assert cluster.run_app(app()) == (None, None, b"3")


def test_read_only_transaction_commits(cluster):
    store = make_store(cluster, "readonly")

    def app():
        yield from store.put(b"k", b"v")
        runtime = store.txn()

        def audit(txn):
            return (yield from txn.get(store, b"k"))

        value = yield from runtime.run(audit)
        return value, runtime.commits

    assert cluster.run_app(app()) == (b"v", 1)


def test_transaction_spans_three_tables(cluster):
    store_a = make_store(cluster, "multi-a")
    store_b = make_store(cluster, "multi-b")
    journal = make_store(cluster, "txn-journal", value_size=16)

    def app():
        yield from store_a.put(b"src", b"500")
        yield from journal.put(b"log", b"\0" * 16)
        runtime = store_a.txn(label="multi")

        def move(txn):
            amount = int((yield from txn.get(store_a, b"src")))
            yield from txn.put(store_a, b"src", b"0")
            yield from txn.put(store_b, b"dst", str(amount).encode())
            entry = yield from txn.get(journal, b"log")
            assert entry == b"\0" * 16
            yield from txn.put(journal, b"log", b"moved".ljust(16, b"\0"))

        yield from runtime.run(move)
        return (
            (yield from store_a.get(b"src")),
            (yield from store_b.get(b"dst")),
            (yield from journal.get(b"log")),
        )

    src, dst, entry = cluster.run_app(app())
    assert (src, dst) == (b"0", b"500")
    assert entry == b"moved".ljust(16, b"\0")


# -- conflicts and aborts -----------------------------------------------------


def test_stale_snapshot_conflicts_and_releases_locks(cluster):
    store = make_store(cluster, "stale")

    def app():
        yield from store.put(b"w", b"1")
        yield from store.put(b"r", b"1")
        runtime = store.txn()
        txn = runtime.begin()
        yield from txn.get(store, b"r")
        yield from txn.put(store, b"w", b"2")
        # invalidate the read-set member after the snapshot: commit
        # takes the intent lock on "w", then validation must fail and
        # the abort path must restore "w"'s word
        yield from store.put(b"r", b"changed")
        with pytest.raises(TxnConflictError, match="invalidated"):
            yield from txn.commit()
        with pytest.raises(TxnMisuseError, match="already aborted"):
            yield from txn.get(store, b"r")
        # the intent lock on "w" was released: a plain writer gets in
        # immediately and the buffered write never landed
        yield from store.put(b"w", b"3")
        return (yield from store.get(b"w")), runtime.aborts

    assert cluster.run_app(app()) == (b"3", 1)


def test_lost_write_intent_conflicts(cluster):
    store = make_store(cluster, "intent")

    def app():
        yield from store.put(b"k", b"1")
        runtime = store.txn()
        txn = runtime.begin()
        yield from txn.get(store, b"k")
        yield from txn.put(store, b"k", b"2")
        yield from store.put(b"k", b"raced")  # bump the version first
        with pytest.raises(TxnConflictError, match="write intent"):
            yield from txn.commit()
        return (yield from store.get(b"k")), runtime._m_conflicts.value

    assert cluster.run_app(app()) == (b"raced", 1)


def test_phantom_insert_invalidates_lookup(cluster):
    store = make_store(cluster, "phantom")

    def app():
        yield from store.put(b"x", b"1")
        runtime = store.txn()
        txn = runtime.begin()
        ghost = yield from txn.get(store, b"ghost")
        assert ghost is None
        yield from txn.put(store, b"x", b"2")
        # another writer materializes the key the lookup missed: the
        # probed empty slot is in the read-set, so commit must conflict
        yield from store.put(b"ghost", b"now-real")
        with pytest.raises(TxnConflictError):
            yield from txn.commit()

    cluster.run_app(app())


def test_concurrent_transfers_conserve_total(cluster):
    sim = cluster.sim
    store = make_store(cluster, "bank", slots=128)
    keys = [f"acct-{i}".encode() for i in range(6)]

    def app():
        for key in keys:
            yield from store.put(key, b"1000")

        def worker(host, rounds):
            view = yield from RKVStore.open(cluster.client(host), "bank")
            runtime = view.txn(label=f"worker-{host}")
            for i in range(rounds):
                src = keys[(host + i) % len(keys)]
                dst = keys[(host * 2 + i + 1) % len(keys)]
                if src == dst:
                    continue

                def transfer(txn, src=src, dst=dst):
                    a = int((yield from txn.get(view, src)))
                    b = int((yield from txn.get(view, dst)))
                    yield from txn.put(view, src, str(a - 7).encode())
                    yield from txn.put(view, dst, str(b + 7).encode())

                yield from runtime.run(transfer)
            return runtime

        procs = [cluster.spawn(worker(h, 12)) for h in (1, 2, 3)]
        yield sim.all_of(procs)
        total = 0
        for key in keys:
            total += int((yield from store.get(key)))
        runtimes = [p.value for p in procs]
        return total, sum(rt.commits for rt in runtimes)

    total, commits = cluster.run_app(app())
    assert total == 6 * 1000
    assert commits > 0


# -- bounds and misuse --------------------------------------------------------


def test_passed_deadline_raises_typed_error(cluster):
    store = make_store(cluster, "deadline")

    def app():
        yield from store.put(b"k", b"v")
        runtime = store.txn()

        def touch(txn):
            yield from txn.put(store, b"k", b"w")

        with pytest.raises(DeadlineExceededError):
            yield from runtime.run(touch, deadline=cluster.sim.now)
        # the aborted attempt left no lock behind
        yield from store.put(b"k", b"after")
        return (yield from store.get(b"k"))

    assert cluster.run_app(app()) == b"after"


def test_retry_budget_exhaustion_is_typed(cluster):
    store = make_store(cluster, "budget")

    def app():
        yield from store.put(b"k", b"0")
        runtime = store.txn(retries=3)

        def always_conflicts(txn):
            value = int((yield from txn.get(store, b"k")))
            # a plain writer invalidates the snapshot on every attempt
            yield from store.put(b"k", str(value + 1).encode())
            yield from txn.put(store, b"k", b"-1")

        with pytest.raises(RetryBudgetExceededError):
            yield from runtime.run(always_conflicts)
        aborts = runtime.aborts
        # the aborted attempts left no lock behind
        yield from store.put(b"k", b"after")
        assert (yield from store.get(b"k")) == b"after"
        return aborts

    assert cluster.run_app(app()) >= 3


def test_finished_transaction_refuses_reuse(cluster):
    store = make_store(cluster, "misuse")

    def app():
        yield from store.put(b"k", b"v")
        runtime = store.txn()
        txn = runtime.begin()
        yield from txn.get(store, b"k")
        yield from txn.commit()
        with pytest.raises(TxnMisuseError, match="already committed"):
            yield from txn.get(store, b"k")
        with pytest.raises(TxnMisuseError):
            yield from txn.commit()
        other = runtime.begin()
        other.abort()
        with pytest.raises(TxnMisuseError, match="already aborted"):
            yield from other.put(store, b"k", b"x")

    cluster.run_app(app())


def test_colliding_inserts_never_share_a_slot(cluster):
    # a 4-slot table guarantees overlapping probe chains
    store = make_store(cluster, "collide", slots=4)
    a, b = None, None
    candidates = [f"key-{i}".encode() for i in range(64)]
    for key in candidates:
        if a is None:
            a = key
        elif _hash64(key) % 4 == _hash64(a) % 4:
            b = key
            break
    assert b is not None

    def app():
        runtime = store.txn()
        txn = runtime.begin()
        yield from txn.put(store, a, b"first")
        # both chains start at the same empty slot; the second insert
        # must not silently target the slot the first one claimed
        with pytest.raises(KvFullError):
            yield from txn.put(store, b, b"second")
        txn.abort()

    cluster.run_app(app())
