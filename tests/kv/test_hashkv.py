"""The one-sided hash table: correctness, races, edge cases."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.coord.seqlock import mint_token
from repro.datapath import ops
from repro.kv import KvError, KvFullError, RKVStore
from repro.rdma.types import Opcode
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector
from tests.probes import create_table, instruments
from tests import probes


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )


def make_store(cluster, name, slots=256, path_policy=None, **kw):
    client = cluster.client(1)

    def setup():
        store = yield from create_table(client, name, slots=slots,
                                        path_policy=path_policy, **kw)
        return store

    return cluster.run_app(setup())


def test_put_get_roundtrip(cluster):
    store = make_store(cluster, "basic")

    def app():
        yield from store.put(b"alpha", b"one")
        yield from store.put(b"beta", b"two")
        a = yield from store.get(b"alpha")
        b = yield from store.get(b"beta")
        missing = yield from store.get(b"gamma")
        return a, b, missing

    assert cluster.run_app(app()) == (b"one", b"two", None)


def test_overwrite_replaces_value(cluster):
    store = make_store(cluster, "overwrite")

    def app():
        yield from store.put(b"k", b"v1")
        yield from store.put(b"k", b"v2-longer")
        return (yield from store.get(b"k"))

    assert cluster.run_app(app()) == b"v2-longer"


def test_delete_and_tombstone_probing(cluster):
    # tiny table forces collisions, exercising the probe chain
    store = make_store(cluster, "tombstones", slots=4)

    def app():
        keys = [b"a", b"b", b"c"]
        for key in keys:
            yield from store.put(key, b"v-" + key)
        deleted = yield from store.delete(b"b")
        missing_after = yield from store.get(b"b")
        # keys that may sit *behind* the tombstone must remain reachable
        survivors = []
        for key in (b"a", b"c"):
            survivors.append((yield from store.get(key)))
        # the tombstone slot is reusable
        yield from store.put(b"d", b"v-d")
        d = yield from store.get(b"d")
        return deleted, missing_after, survivors, d

    deleted, missing, survivors, d = cluster.run_app(app())
    assert deleted is True
    assert missing is None
    assert survivors == [b"v-a", b"v-c"]
    assert d == b"v-d"


@pytest.mark.parametrize("path_policy", [None, "server_op"])
def test_store_behind_a_tombstone_overwrites_instead_of_duplicating(
        cluster, path_policy):
    # a and b share a home slot, so b lives behind a; once a is a
    # tombstone, a store of b must still find b further down the chain
    # — claiming the tombstone first would leave two copies of b, and
    # deleting one would resurrect the other
    slots = 64
    store = make_store(cluster, f"resurrect-{path_policy}", slots=slots,
                       path_policy=path_policy)
    a = b"key-0"
    b = next(key for key in (b"key-%d" % i for i in range(1, 10_000))
             if ops.hash64(key) % slots == ops.hash64(a) % slots)

    def app():
        yield from store.put(a, b"A")
        yield from store.put(b, b"B1")
        yield from store.delete(a)
        yield from store.put(b, b"B2")
        assert (yield from store.get(b)) == b"B2"
        assert (yield from store.delete(b)) is True
        assert (yield from store.get(b)) is None

    cluster.run_app(app())


def test_delete_missing_returns_false(cluster):
    store = make_store(cluster, "del-miss")

    def app():
        return (yield from store.delete(b"ghost"))

    assert cluster.run_app(app()) is False


def test_table_fills_up(cluster):
    store = make_store(cluster, "full", slots=4)

    def app():
        with pytest.raises(KvFullError):
            for i in range(20):
                yield from store.put(f"key-{i}".encode(), b"v")

    cluster.run_app(app())


def test_key_value_size_limits(cluster):
    store = make_store(cluster, "limits", key_size=8, value_size=16)

    def app():
        with pytest.raises(KvError, match="key"):
            yield from store.put(b"x" * 9, b"v")
        with pytest.raises(KvError, match="value"):
            yield from store.put(b"k", b"v" * 17)
        with pytest.raises(KvError, match="empty"):
            yield from store.put(b"", b"v")
        # at the limits everything works
        yield from store.put(b"x" * 8, b"v" * 16)
        return (yield from store.get(b"x" * 8))

    assert cluster.run_app(app()) == b"v" * 16


def test_second_client_opens_and_shares(cluster):
    store = make_store(cluster, "shared")
    other = cluster.client(3)

    def app():
        yield from store.put(b"from-1", b"hello")
        view = yield from RKVStore.open(other, "shared")
        seen = yield from view.get(b"from-1")
        yield from view.put(b"from-3", b"world")
        back = yield from store.get(b"from-3")
        return seen, back

    assert cluster.run_app(app()) == (b"hello", b"world")


def test_concurrent_writers_distinct_keys(cluster):
    store = make_store(cluster, "concurrent", slots=512)
    sim = cluster.sim

    def writer(worker, count):
        view = yield from RKVStore.open(cluster.client(worker), "concurrent")
        for i in range(count):
            key = f"w{worker}-{i}".encode()
            yield from view.put(key, key[::-1])

    def app():
        procs = [sim.process(writer(w, 20)) for w in (0, 2, 3)]
        yield sim.all_of(procs)
        values = []
        for worker in (0, 2, 3):
            for i in range(20):
                key = f"w{worker}-{i}".encode()
                values.append((yield from store.get(key)) == key[::-1])
        return values

    assert all(cluster.run_app(app()))


def test_concurrent_writers_same_key_last_write_wins():
    # past its first put each writer holds a hint that the others keep
    # making stale: hinted CASes race each other and the walkers
    cluster = _sanitized_cluster()
    store = make_store(cluster, "race")
    sim = cluster.sim

    def writer(worker):
        view = yield from RKVStore.open(cluster.client(worker), "race")
        for i in range(10):
            yield from view.put(b"hot", f"worker-{worker}-{i}".encode())

    def app():
        procs = [sim.process(writer(w)) for w in (0, 2, 3)]
        yield sim.all_of(procs)
        final = yield from store.get(b"hot")
        index, version = probes.write_hint(store, b"hot")
        _version, _len, key, _value = yield from store.snapshot_slot(index)
        return final, version, key

    final, version, key = cluster.run_app(app())
    # one of the writers' final values; never torn, never stale-empty
    assert final is not None
    assert final.startswith(b"worker-") and final.endswith(b"-9")
    # one slot, and each of the 30 puts published exactly once
    assert (key, version) == (b"hot", 2 * 30)
    _assert_race_free(cluster)


def _sanitized_cluster(faults=None):
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB, sanitize=True),
        server_capacity=64 * MiB, faults=faults,
    )


def _assert_race_free(cluster):
    from repro.sanitize import rsan_for

    rsan = rsan_for(cluster.sim)
    assert rsan.races == [], rsan.report()


def _two_handles(cluster, name, slots=64):
    """A table created on host 1 and a second handle on host 2."""
    mine = yield from RKVStore.create(cluster.client(1), name, slots)
    theirs = yield from RKVStore.open(cluster.client(2), name)
    return mine, theirs


def test_a_hinted_put_behind_another_handles_overwrite_moves_versions_on():
    cluster = _sanitized_cluster()

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-stale")
        yield from mine.put(b"k", b"mine-1")
        index, first = probes.write_hint(mine, b"k")
        yield from theirs.put(b"k", b"theirs")
        yield from mine.put(b"k", b"mine-2")  # its hint is stale now
        version, _len, key, value = yield from mine.snapshot_slot(index)
        seen = yield from theirs.get(b"k")
        return first, (version, key, value), seen, probes.write_hint(
            mine, b"k"), index

    first, slot, seen, hint, index = cluster.run_app(app())
    # theirs published first + 2, the stale-hinted put first + 4
    assert slot == (first + 4, b"k", b"mine-2")
    assert seen == b"mine-2"
    assert hint == (index, first + 4)
    _assert_race_free(cluster)


def test_a_hinted_put_never_overwrites_the_key_that_reclaimed_its_slot():
    cluster = _sanitized_cluster()
    slots = 64
    a = b"key-0"
    b = next(key for key in (b"key-%d" % i for i in range(1, 10_000))
             if ops.hash64(key) % slots == ops.hash64(a) % slots)

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-reclaimed",
                                               slots)
        yield from mine.put(a, b"A1")
        home, _version = probes.write_hint(mine, a)
        assert (yield from theirs.delete(a)) is True
        yield from theirs.put(b, b"B")  # claims a's tombstone
        yield from mine.put(a, b"A2")   # hinted at a slot b now holds
        slots_seen, values = [], []
        for index in (home, (home + 1) % slots):
            _version, _len, key, value = yield from mine.snapshot_slot(index)
            slots_seen.append((key, value))
        for key in (a, b):
            values.append((yield from theirs.get(key)))
        return home, slots_seen, probes.write_hint(mine, a), values

    home, slots_seen, hint, values = cluster.run_app(app())
    # b keeps the reclaimed slot; a goes where the store rule puts it,
    # the first reusable slot of its chain
    assert slots_seen == [(b, b"B"), (a, b"A2")]
    assert hint[0] == (home + 1) % slots
    assert values == [b"A2", b"B"]
    _assert_race_free(cluster)


def _losing_one_ack(opcode):
    """A sanitized cluster whose host 1 loses the ack of one *opcode*
    WR, the first posted once ``armed`` holds anything: ``(cluster,
    faults, armed)``."""
    faults = FaultInjector(seed=3).fail_wire(1, start=0.0, duration=1e9,
                                             times=1, where="ack")
    cluster = _sanitized_cluster(faults)
    nic = cluster.nic(1)
    inject, armed = nic.ack_fault_hook, []

    def only_armed(host, wr):
        if not armed or wr.opcode is not opcode:
            return ""
        return inject(host, wr)

    nic.ack_fault_hook = only_armed
    return cluster, faults, armed


@pytest.mark.parametrize("opcode", [Opcode.RDMA_READ, Opcode.ATOMIC_CAS],
                         ids=["read", "cas"])
def test_a_lost_ack_on_the_hinted_doorbell_never_wedges_the_slot(opcode):
    # either request of [READ slot, lock CAS] loses its ack: a lost CAS
    # ack may hide a landed CAS, and a failed READ flushes the CAS
    # behind it, which may have landed too.  The lock word is the
    # handle's token, so one read of the word settles it: the put
    # completes and the slot is left at an even version, never locked
    cluster, faults, armed = _losing_one_ack(opcode)

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-ack-lost")
        yield from mine.put(b"k", b"v1")
        index, version = probes.write_hint(mine, b"k")
        armed.append(True)
        yield from mine.put(b"k", b"v2")
        word, _len, key, value = yield from theirs.snapshot_slot(index)
        return version, (word, key, value), probes.write_hint(
            mine, b"k"), index

    version, slot, hint, index = cluster.run_app(app())
    assert faults.injected["wire"] == 1
    assert slot == (version + 2, b"k", b"v2")
    assert hint == (index, version + 2)
    _assert_race_free(cluster)


def test_an_insert_behind_a_tombstone_claims_it_and_casts_nothing_past_it():
    # hop 0 holds a, hop 1 is b's tombstone, hop 2 was never used: the
    # store rule puts c in the tombstone, and the walk posts no CAS past
    # it — a CAS from 0 on hop 2 would have won a slot the rule skips
    cluster = _sanitized_cluster()
    slots = 64
    a, b, c = probes.same_home(slots, 3)

    def app():
        mine, theirs = yield from _two_handles(cluster, "insert-tomb", slots)
        yield from mine.put(a, b"A")
        yield from mine.put(b, b"B")
        assert (yield from mine.delete(b)) is True
        yield from theirs.put(c, b"C")
        found = []
        for index in theirs.chain(c)[:3]:
            version, _len, key, value = yield from mine.snapshot_slot(index)
            found.append((version, key, value))
        return found

    found = cluster.run_app(app())
    assert found == [(2, a, b"A"), (6, c, b"C"), (0, b"", b"")]
    # every CAS from 0 that lost met a published word: a probe's
    # answer, never a lost race
    assert probes.count_all(cluster, "coord.seqlock.lock_failures") == 0
    _assert_race_free(cluster)


def test_two_handles_inserting_one_absent_key_leave_one_live_slot():
    # both walks CAS the never-used home slot from 0 on their first
    # doorbell: one wins and publishes, the other meets its token,
    # re-reads the slot, finds the key and overwrites it there
    cluster = _sanitized_cluster()
    sim = cluster.sim
    keys = [f"twin-{i}".encode() for i in range(8)]

    def app():
        mine, theirs = yield from _two_handles(cluster, "insert-twins")
        for key in keys:
            yield sim.all_of([sim.process(mine.put(key, b"mine")),
                              sim.process(theirs.put(key, b"theirs"))])
        live = []
        for index in range(mine.slots):
            version, key_len, key, value = yield from mine.snapshot_slot(
                index)
            if key_len not in (0, ops.TOMBSTONE):
                live.append((key, version, value))
        return live

    live = cluster.run_app(app())
    assert sorted(key for key, _version, _value in live) == sorted(keys)
    # both puts published, one claiming and one overwriting
    assert {version for _key, version, _value in live} == {4}
    # the race really happened: a CAS from 0 met the other's token
    assert probes.count_all(cluster, "coord.seqlock.lock_failures") > 0
    _assert_race_free(cluster)


def _inserts_across_a_delete(a_writer, b_writer):
    """Two inserts of k racing a delete: x sits at the chain's home with
    y's tombstone behind it; A inserts k at t=0 while C deletes x, and
    B inserts k 2 µs later.  A one-sided A walks to y's tombstone and
    CASes it a round trip later; B may walk after x's delete published
    and claim x's slot, ahead of A's.  *a_writer* and *b_writer* are how
    A and B insert: ``"one_sided"``, ``"server_op"`` (a handle under
    that policy) or ``"txn"`` (a ``TxnRuntime.run`` insert).  Returns
    ``(cluster, live)``, *live* the ``(slot, value)`` of every slot
    holding k."""
    cluster = _sanitized_cluster()
    sim = cluster.sim
    slots = 64
    x, y, k = probes.same_home(slots, 3)
    policy = {"one_sided": None, "txn": None, "server_op": "server_op"}

    def insert(store, writer, value):
        if writer == "txn":
            def put(txn):
                yield from txn.put(store, k, value)
            yield from store.txn().run(put)
        else:
            yield from store.put(k, value)

    def after(delay, insertion):
        yield sim.timeout(delay)
        yield from insertion

    def app():
        c = yield from RKVStore.create(cluster.client(1), "race", slots)
        a = yield from RKVStore.open(cluster.client(2), "race",
                                     policy[a_writer])
        b = yield from RKVStore.open(cluster.client(3), "race",
                                     policy[b_writer])
        yield from c.put(x, b"X")
        yield from c.put(y, b"Y")
        assert (yield from c.delete(y)) is True
        yield sim.all_of([
            sim.process(insert(a, a_writer, b"A")),
            sim.process(c.delete(x)),
            sim.process(after(2e-6, insert(b, b_writer, b"B"))),
        ])
        live = []
        for index in range(slots):
            _version, _len, key, value = yield from c.snapshot_slot(index)
            if key == k:
                live.append((index, value))
        return live

    return cluster, cluster.run_app(app())


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 15: an insert that claims a deep tombstone a round "
    "trip after its walk can meet one that claimed the tombstone a "
    "delete opened ahead of it"))
def test_racing_inserts_across_a_delete_leave_one_live_slot():
    # the one-sided pair leaves k at home (B's) and home + 1 (A's).
    # Strict: the test must start passing, and lose its mark, when the
    # store rule is made to hold under this race
    _cluster, live = _inserts_across_a_delete("one_sided", "one_sided")
    assert len(live) <= 1, live


@pytest.mark.parametrize("a_writer,b_writer", [
    ("txn", "one_sided"), ("one_sided", "txn"),
    ("server_op", "one_sided"), ("one_sided", "server_op"),
])
def test_other_writers_racing_across_a_delete_leave_one_live_slot(
        a_writer, b_writer):
    """The race above with a transaction or a server-op store in A's or
    B's role leaves one live slot.  One schedule per pair: a sample,
    not a proof that these writers are safe — it says the transaction's
    read-set validation, and the server's walk and store in one host
    visit, did not let this schedule store k twice."""
    cluster, live = _inserts_across_a_delete(a_writer, b_writer)
    assert len(live) == 1, live
    _assert_race_free(cluster)


@pytest.mark.parametrize("opcode", [Opcode.RDMA_READ, Opcode.ATOMIC_CAS],
                         ids=["read", "cas"])
def test_a_lost_ack_on_an_inserts_walk_never_wedges_the_slot(opcode):
    # either request of the walk's [READ slot, CAS 0 → token] loses its
    # ack: the CAS may have landed, and the token settles whether it
    # did.  The insert completes at version 2 and no word is left odd
    cluster, faults, armed = _losing_one_ack(opcode)

    def app():
        mine, theirs = yield from _two_handles(cluster, "insert-ack-lost")
        armed.append(True)
        yield from mine.put(b"fresh", b"v")
        words, slot = [], None
        for index in range(theirs.slots):
            version, _len, key, value = yield from theirs.snapshot_slot(
                index)
            words.append(version)
            if key == b"fresh":
                slot = (version, value)
        return words, slot

    words, slot = cluster.run_app(app())
    assert faults.injected["wire"] == 1
    assert slot == (2, b"v")
    assert all(word % 2 == 0 for word in words)
    _assert_race_free(cluster)


def test_a_hinted_get_of_a_key_another_client_deleted_returns_none():
    # the hinted slot holds a tombstone: not a hit, so the get walks the
    # chain from its start, finds the key nowhere, and drops the hint
    cluster = _sanitized_cluster()

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-deleted")
        yield from mine.put(b"k", b"v")
        assert (yield from mine.get(b"k")) == b"v"
        assert probes.write_hint(mine, b"k") is not None
        assert (yield from theirs.delete(b"k")) is True
        return (yield from mine.get(b"k")), probes.write_hint(mine, b"k")

    assert cluster.run_app(app()) == (None, None)
    _assert_race_free(cluster)


def test_a_hinted_get_of_a_key_reinserted_at_an_earlier_tombstone_finds_it():
    # a at the chain's home, b behind it; the other client deletes both
    # and re-inserts b, which the store rule puts in the first
    # tombstone — a's old slot.  b's hint names its old slot, now a
    # tombstone: the get walks from the chain's start and finds b home
    cluster = _sanitized_cluster()
    slots = 64
    a, b = probes.same_home(slots, 2)

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-moved", slots)
        yield from mine.put(a, b"A")
        yield from mine.put(b, b"B1")
        stale, _version = probes.write_hint(mine, b)
        for key in (a, b):
            assert (yield from theirs.delete(key)) is True
        yield from theirs.put(b, b"B2")
        value = yield from mine.get(b)
        return stale, value, probes.write_hint(mine, b)

    stale, value, hint = cluster.run_app(app())
    home = ops.hash64(a) % slots
    assert stale == (home + 1) % slots
    assert value == b"B2"
    assert hint[0] == home
    _assert_race_free(cluster)


@pytest.mark.parametrize("which", [0, 1], ids=["slot-read", "word-read"])
def test_a_hinted_get_under_a_lost_ack_returns_the_value(which):
    # the hinted get posts [READ slot, READ word] on one doorbell; either
    # READ loses its ack.  The pipeline replays it, the pair's order is
    # no longer proven, so the word is read once more: the answer is
    # the slot's value, validated, in whatever round trips that takes
    faults = FaultInjector(seed=3).fail_wire(1, start=0.0, duration=1e9,
                                             times=1, where="ack")
    cluster = _sanitized_cluster(faults)
    nic = cluster.nic(1)
    inject, reads = nic.ack_fault_hook, []

    def only_the_armed_read(host, wr):
        if not reads or wr.opcode is not Opcode.RDMA_READ:
            return ""
        reads.append(wr)
        if len(reads) - 2 != which:
            return ""
        return inject(host, wr)

    nic.ack_fault_hook = only_the_armed_read

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-get-ack")
        yield from mine.put(b"k", b"v1")
        yield from theirs.put(b"k", b"v2")
        assert (yield from mine.get(b"k")) == b"v2"
        reads.append("armed")
        value = yield from mine.get(b"k")
        return value, probes.write_hint(mine, b"k")

    value, hint = cluster.run_app(app())
    assert faults.injected["wire"] == 1
    assert value == b"v2"
    assert hint[1] == 4
    # the replay left the pair's order unproven: the word was re-read
    assert probes.count_all(cluster, "coord.seqlock.reads_revalidated") == 1
    _assert_race_free(cluster)


def test_one_client_keeps_one_bounded_hint_table_per_table():
    # every handle of a table on one client shares its hints; they never
    # outnumber the table's slots; a freed and re-created table of the
    # same name starts cold
    cluster = _sanitized_cluster()
    slots = 4
    old = [b"old-%d" % i for i in range(slots)]
    new = [b"new-%d" % i for i in range(slots)]

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-bounds", slots)
        for key in old:
            yield from mine.put(key, b"o")
        for key in old:
            assert (yield from theirs.delete(key)) is True
        for key in new:
            yield from theirs.put(key, b"n")
        # a second handle on the same client learns what the first reads
        twin = yield from RKVStore.open(cluster.client(1), "hint-bounds")
        for key in new:
            assert (yield from twin.get(key)) == b"n"
        hinted = [key for key in old + new
                  if probes.write_hint(mine, key) is not None]
        mine.mapping.unmap()
        twin.mapping.unmap()
        yield from cluster.client(1).free(mine.mapping.name)
        again = yield from RKVStore.create(cluster.client(1), "hint-bounds",
                                           slots)
        cold = [key for key in old + new
                if probes.write_hint(again, key) is not None]
        return hinted, cold

    hinted, cold = cluster.run_app(app())
    assert hinted == new
    assert cold == []
    _assert_race_free(cluster)


def _locate_deep(store, home):
    """Put three keys of the chain at *home* through *store* (generator):
    its client has then located keys three deep, so its next get of a
    key it never saw reads three slots from that key's home at once."""
    for key in probes.same_home(store.slots, 3, home=home):
        yield from store.put(key, b"d")


def _posted(cluster, host):
    """``(doorbells, WRs)`` host *host*'s NIC has posted so far."""
    nic = cluster.nic(host)
    return nic.doorbells_rung, nic.ops_posted


def test_a_writer_racing_one_window_slot_costs_that_slot_a_re_read():
    # the rival holds the third slot of the reader's window locked, as
    # a put between its CAS and its publish does: the window's pair
    # validates the first two, and only the third is read again — raced
    # until the rival publishes, then validated
    cluster = _sanitized_cluster()
    sim = cluster.sim
    slots = 64
    chain = probes.same_home(slots, 3)

    def app():
        mine, theirs = yield from _two_handles(cluster, "window-race", slots)
        for key in chain:
            yield from theirs.put(key, b"old")
        yield from _locate_deep(mine, home=slots // 2)
        index = ops.hash64(chain[0]) % slots + 2
        lock = theirs.slot_lock(index)
        version, _len, key, _value = yield from theirs.snapshot_slot(index)
        assert key == chain[2]
        token = mint_token(theirs.client)
        assert (yield from lock.try_lock(version, token))
        retries = probes.count(cluster, "kv.read_retries",
                               table="window-race", host=1)
        bells, wrs = _posted(cluster, 1)
        reader = cluster.spawn(mine.get(chain[2]))
        yield sim.timeout(10e-6)
        yield from lock.publish(token, ops.encode_body(
            chain[2], b"new", mine.key_size, mine.value_size),
            new_version=version + 2)
        yield sim.all_of([reader])
        raced = probes.count(cluster, "kv.read_retries",
                             table="window-race", host=1) - retries
        posted = [now - then for now, then
                  in zip(_posted(cluster, 1), (bells, wrs))]
        return reader.value, raced, posted, probes.write_hint(
            mine, chain[2]), (index, version + 2)

    value, raced, (bells, wrs), hint, published = cluster.run_app(app())
    assert value == b"new"
    # the window's own race, then each re-read the lock turned away
    assert raced >= 2
    # one pair for the window, then one [READ slot, READ word] per
    # re-read of the raced slot alone: raced - 1 turned away, the last
    # validated
    assert (bells, wrs) == (1 + raced, 2 * (1 + raced))
    assert hint == published
    _assert_race_free(cluster)


@pytest.mark.parametrize("slots, home", [
    # a slot is 104 B and a stripe 64 KiB: slot 630 starts the second
    (1024, 628),
    (64, 62),
], ids=["stripe", "table-end"])
def test_a_window_stops_at_its_homes_stripe_and_at_the_tables_end(slots,
                                                                  home):
    # home two slots before the edge: the window reads those two in one
    # pair, and the walk reads the third, past the edge, on its own
    cluster = _sanitized_cluster()
    chain = probes.same_home(slots, 3, home=home)

    def app():
        mine = yield from RKVStore.create(cluster.client(1), "window-edge",
                                          slots, key_size=16, value_size=64)
        theirs = yield from RKVStore.open(cluster.client(2), "window-edge")
        assert mine.mapping.desc.stripe_size == 630 * mine.slot_size
        for key in chain:
            yield from theirs.put(key, key)
        yield from _locate_deep(mine, home=10)
        before = _posted(cluster, 1)
        value = yield from mine.get(chain[2])
        posted = tuple(now - then
                       for now, then in zip(_posted(cluster, 1), before))
        return value, posted, probes.write_hint(mine, chain[2])

    value, posted, hint = cluster.run_app(app())
    assert value == chain[2]
    assert hint[0] == (home + 2) % slots
    assert posted == (2, 4)
    _assert_race_free(cluster)


def test_the_depth_histogram_counts_what_the_hints_locate():
    # every hint set, moved, dropped or evicted moves the histogram of
    # the depths the client's hints locate keys at, which a recount from
    # the hints themselves must match after every step
    cluster = _sanitized_cluster()
    slots = 8
    chain = probes.same_home(slots, 4)

    def recount(store):
        depths = [0] * ops.PROBE_LIMIT
        for key, (index, _version, _base) in store._hints.items():
            if index is not None:
                depths[(index - ops.hash64(key)) % slots] += 1
        return depths

    def app():
        mine, theirs = yield from _two_handles(cluster, "hint-depths", slots)
        steps = []

        def step(label):
            steps.append((label, list(mine._depths), recount(mine)))

        for key in chain:
            yield from mine.put(key, b"v")
        step("four keys, one to four deep")
        # the rival moves the deepest key to the chain's home: a get
        # follows it there, from four deep to one
        assert (yield from theirs.delete(chain[0])) is True
        assert (yield from theirs.delete(chain[3])) is True
        yield from theirs.put(chain[3], b"moved")
        assert (yield from mine.get(chain[3])) == b"moved"
        step("one key moved")
        assert (yield from mine.delete(chain[1])) is True
        step("one dropped by a delete")
        # misses fill the hint table past its bound: the oldest go
        for i in range(slots):
            assert (yield from mine.get(b"absent-%d" % i)) is None
            step(f"{i + 1} misses")
        return steps

    steps = cluster.run_app(app())
    for label, kept, recounted in steps:
        assert kept == recounted, label
    assert steps[0][1][:4] == [1, 1, 1, 1]
    assert steps[1][1][:4] == [2, 1, 1, 0]
    assert steps[2][1][:4] == [2, 0, 1, 0]
    assert sum(steps[-1][1]) == 0
    _assert_race_free(cluster)


PATH_POLICIES = ["one_sided", "server_op", "remote_fetch"]


def test_racing_puts_of_different_keys_for_one_reusable_slot(cluster):
    """Two clients walk to the same never-used slot for *different*
    keys and both CAS it from 0 on their walk's doorbell: exactly one
    wins; the loser's CAS finds the winner's token, its hop re-reads
    the slot, finds it taken and claims the next one.  No re-read under
    the lock is needed for that — the CAS itself is the guard."""
    store = make_store(cluster, "slot-race", slots=64)
    sim = cluster.sim
    # pairs of keys whose chains start at the same slot
    by_slot = {}
    for i in range(400):
        key = f"key-{i}".encode()
        by_slot.setdefault(store.chain(key)[0], []).append(key)
    pairs = [keys[:2] for keys in by_slot.values() if len(keys) >= 2][:8]
    assert len(pairs) == 8
    views = {}

    def writer(host, key):
        yield from views[host].put(key, key[::-1])

    def app():
        for host in (2, 3):
            views[host] = yield from RKVStore.open(cluster.client(host),
                                                   "slot-race")
        for left, right in pairs:
            yield sim.all_of([sim.process(writer(2, left)),
                              sim.process(writer(3, right))])
        stored = []
        for index in range(store.slots):
            _version, key_len, key, value = yield from store.snapshot_slot(
                index)
            if key_len:
                stored.append((key, value))
        return stored

    stored = cluster.run_app(app())
    wanted = sorted((key, key[::-1]) for pair in pairs for key in pair)
    assert sorted(stored) == wanted  # every key once, none lost
    # the race really happened: some CAS lost to the other's token
    assert sum(probes.count(cluster, "coord.seqlock.lock_failures",
                            region=store.mapping.name, host=host)
               for host in (2, 3)) > 0


@pytest.mark.parametrize("path_policy", PATH_POLICIES)
def test_multi_get_matches_sequential_gets(path_policy):
    # 1 MiB stripes: the 16-slot table of 32 KiB values below is one
    # stripe on one host, the worst case for a batched server reply
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=1 * MiB),
        server_capacity=64 * MiB,
    )
    store = make_store(cluster, "mget", path_policy=path_policy)
    big = make_store(cluster, "mget-big", slots=ops.PROBE_LIMIT,
                     value_size=32 * KiB, path_policy=path_policy)
    big_keys = [f"big-{i}".encode() for i in range(12)]

    def fill():
        for i in range(12):
            yield from store.put(f"key-{i}".encode(), f"val-{i}".encode())
        yield from store.delete(b"key-5")
        for i, key in enumerate(big_keys):
            yield from big.put(key, bytes([i]) * (32 * KiB))

    cluster.run_app(fill())
    # the master moves an era forward, and we forge what every server
    # re-registering fresh under it leaves behind: fences at the new
    # era and the tables re-placed under it.  The handles' descriptors
    # and observed epoch are now both stale, and the batch must refresh
    # and retry exactly as a single get does
    cluster.crash_master()
    cluster.run_app(cluster.restart_master())
    cluster.run(until=cluster.sim.now + 0.5)
    for server in cluster.servers.values():
        server.nic.set_fence(0, cluster.master.epoch)
    for region in cluster.master.regions.values():
        region.epoch = cluster.master.epoch

    def app():
        # present, absent (a never-used slot ends the chain), deleted,
        # and the same key twice in one batch
        keys = [f"key-{i}".encode() for i in range(12)] + [
            b"ghost", b"key-5", b"key-0", b"ghost"]
        batched = yield from store.multi_get(keys)
        singles = []
        for key in keys:
            singles.append((yield from store.get(key)))
        whole = yield from big.multi_get(big_keys)
        return batched, singles, whole

    batched, singles, whole = cluster.run_app(app())
    assert batched == singles
    assert batched[0] == b"val-0" == batched[-2]
    assert batched[12] is None and batched[13] is None
    assert whole == [bytes([i]) * (32 * KiB) for i in range(12)]


@pytest.mark.parametrize("path_policy", PATH_POLICIES)
@pytest.mark.parametrize("slots", [4, ops.PROBE_LIMIT])
def test_multi_get_probes_past_tombstones(cluster, path_policy, slots):
    # a table no larger than the probe window: every key collides with
    # every other.  4 slots leave one never-used terminator behind the
    # tombstone; 16 fill the whole window, so a miss walks all of it
    store = make_store(cluster, f"mget-tomb-{slots}-{path_policy}",
                       slots=slots, path_policy=path_policy)
    present = [bytes([ord("a") + i]) for i in range(slots - 1)]

    def app():
        for key in present:
            yield from store.put(key, b"v-" + key)
        if slots == ops.PROBE_LIMIT:
            yield from store.put(b"last", b"v-last")  # window now full
        yield from store.delete(b"b")
        keys = present + [b"nope", b"last", b"a", b"b"]
        batched = yield from store.multi_get(keys)
        singles = []
        for key in keys:
            singles.append((yield from store.get(key)))
        return keys, batched, singles

    keys, batched, singles = cluster.run_app(app())
    assert batched == singles
    found = dict(zip(keys, batched))
    assert found[b"a"] == b"v-a" and found[b"c"] == b"v-c"
    assert found[b"b"] is None and found[b"nope"] is None
    assert found[b"last"] == (b"v-last" if slots == ops.PROBE_LIMIT
                              else None)


def test_multi_get_empty_and_batching_metric(cluster):
    store = make_store(cluster, "mget-batch")
    nic = cluster.client(1).nic

    def app():
        empty = yield from store.multi_get([])
        for i in range(16):
            yield from store.put(f"bk-{i}".encode(), b"x" * i)
        bells0, ops0 = nic.doorbells_rung, nic.ops_posted
        values = yield from store.multi_get(
            [f"bk-{i}".encode() for i in range(16)]
        )
        bells = nic.doorbells_rung - bells0
        ops = nic.ops_posted - ops0
        return empty, values, bells, ops

    empty, values, bells, ops = cluster.run_app(app())
    assert empty == []
    assert values == [b"x" * i for i in range(16)]
    # every slot's snapshot and validation READs ride shared doorbells
    assert bells < ops


def test_seqlock_instruments_do_not_grow_with_the_key_space():
    # every slot touched makes a SeqLock view; its counters are per
    # region and host, so the registry must not grow with the keys
    from repro.obs import obs_for

    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )
    store = make_store(cluster, "census", slots=2048)
    metrics = obs_for(cluster.sim).metrics

    def touch(keys):
        for key in keys:
            yield from store.put(key, b"v")
            assert (yield from store.get(key)) == b"v"

    cluster.run_app(touch([b"first"]))
    registered = instruments(metrics)
    cluster.run_app(touch([f"key-{i}".encode() for i in range(500)]))
    assert instruments(metrics) == registered
    for name in ("coord.seqlock.read_retries",
                 "coord.seqlock.lock_failures"):
        assert len(metrics.series(name)) == 1


def test_no_server_cpu_involved(cluster):
    store = make_store(cluster, "offload")
    busy_before = {
        h: cluster.net.host(h).cpu.busy_seconds for h in range(4)
    }

    def app():
        for i in range(30):
            yield from store.put(f"k{i}".encode(), b"v")
            yield from store.get(f"k{i}".encode())

    cluster.run_app(app())
    for h in range(4):
        if h == 1:  # the client's own host works, everyone else sleeps
            continue
        extra = cluster.net.host(h).cpu.busy_seconds - busy_before[h]
        assert extra < 1e-4  # heartbeat noise only


def _snapshots_validate_under_concurrent_writers(lookup):
    """A sanitized reader looks every key up (``lookup(view, keys)``)
    while two writers churn them all: each returned value must be a
    whole published value (the value embeds its key, so a snapshot
    mixing two publishes would mismatch), the reader must observe the
    churn actually advancing, and RSan must stay silent — the
    validation protocol is synchronization enough."""
    from repro.sanitize import rsan_for

    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB, sanitize=True),
        server_capacity=64 * MiB,
    )
    sim = cluster.sim
    keys = [f"key-{i}".encode() for i in range(8)]
    rounds = 20
    writers_done = []

    def writer(host):
        view = yield from RKVStore.open(cluster.client(host), "mg-churn")
        for gen in range(1, rounds + 1):
            for key in keys:
                stamp = f":{host}:{gen}".encode()
                yield from view.put(key, key + stamp)
        writers_done.append(host)

    def reader():
        view = yield from RKVStore.open(cluster.client(3), "mg-churn")
        seen = {key: set() for key in keys}
        while len(writers_done) < 2:
            values = yield from lookup(view, keys)
            for key, value in zip(keys, values):
                assert value is not None and value.startswith(key + b":"), (
                    f"torn snapshot for {key!r}: {value!r}"
                )
                seen[key].add(value)
            yield sim.timeout(2e-6)
        return seen

    def app():
        store = yield from RKVStore.create(cluster.client(0), "mg-churn",
                                           slots=64)
        for key in keys:
            yield from store.put(key, key + b":0:0")
        procs = [cluster.spawn(writer(1)), cluster.spawn(writer(2))]
        read_proc = cluster.spawn(reader())
        yield sim.all_of(procs + [read_proc])
        return read_proc.value

    seen = cluster.run_app(app())
    # the reader really interleaved with the churn, per key
    assert all(len(values) > 1 for values in seen.values()), {
        key: len(values) for key, values in seen.items()
    }
    # at least one snapshot raced a writer and was re-validated, counted
    # by the table and by the SeqLock layer alike
    assert probes.count(cluster, "kv.read_retries", table="mg-churn",
                        host=3) > 0
    assert probes.count(cluster, "coord.seqlock.read_retries",
                        region="kv.mg-churn", host=3) > 0
    assert rsan_for(sim).races == [], rsan_for(sim).report()


def test_multi_get_snapshots_validate_under_concurrent_writers():
    _snapshots_validate_under_concurrent_writers(
        lambda view, keys: view.multi_get(keys))


def test_get_snapshots_validate_under_concurrent_writers():
    def gets(view, keys):
        values = []
        for key in keys:
            values.append((yield from view.get(key)))
        return values

    _snapshots_validate_under_concurrent_writers(gets)


@pytest.mark.parametrize("path_policy", [None, "server_op"])
@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "get", "delete"]),
            st.integers(min_value=0, max_value=15),
            st.binary(min_size=0, max_size=24),
        ),
        max_size=40,
    )
)
def test_matches_dict_reference(path_policy, ops):
    """Property: the table behaves like a dict under any op sequence —
    16 keys in 24 slots, so chains collide and tombstones sit inside
    them."""
    cluster = build_cluster(
        num_machines=2,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )
    client = cluster.client(1)
    reference: dict[bytes, bytes] = {}

    def app():
        store = yield from create_table(client, "model", slots=24,
                                        path_policy=path_policy)
        for op, key_id, value in ops:
            key = f"key-{key_id}".encode()
            if op == "put":
                yield from store.put(key, value)
                reference[key] = value
            elif op == "get":
                got = yield from store.get(key)
                assert got == reference.get(key)
            else:
                existed = yield from store.delete(key)
                assert existed == (key in reference)
                reference.pop(key, None)
        for key, value in reference.items():
            assert (yield from store.get(key)) == value

    cluster.run_app(app())
