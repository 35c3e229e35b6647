"""A commit is two flushes: every write intent, then every publish.

Queuing all the intent CASes at once changes what can go wrong between
them: two transactions can each win one word of the same pair (there
is no "first lock" to serialize on any more), and one fault can eat or
flush several CAS completions at a time.  Try-locks never wait, so the
first is an abort, not a deadlock; tokens name their holder, so the
second still acquires every lock exactly once.  Also here: the retry
jitter is one stream per runtime, not one restarted by every attempt.
"""

import pytest

from repro.cluster import build_cluster
from repro.coord.base import read_word
from repro.core import RStoreConfig
from repro.core.errors import RegionUnavailableError
from repro.datapath import ops
from repro.kv import RKVStore
from repro.obs import obs_for
from repro.rdma.types import Opcode
from repro.simnet.config import MiB
from repro.txn import TxnConflictError, TxnMisuseError, TxnRuntime

#: every account is one key of its own single-slot table, so each
#: balance is one SeqLock record at offset 0 of a region on one server
_KEY = b"acct"
_BODY = 8


def _cluster():
    return build_cluster(num_machines=4, server_capacity=16 * MiB)


def _amount(value):
    return value.to_bytes(_BODY, "little")


def _records(cluster, homes):
    """One single-slot table per entry of *homes* (the server it lives
    on), its account holding 100; named so that they sort in *homes*
    order."""
    client = cluster.client(0)
    records = []
    for i, home in enumerate(homes):
        name = f"acct-{i}"
        yield from client.alloc(f"kv.{name}", ops.slot_size(_BODY, _BODY),
                                preferred_host=home)
        mapping = yield from client.map(f"kv.{name}")
        assert mapping.desc.stripes[0].host_id == home
        table = RKVStore(client, name, mapping, 1, _BODY, _BODY)
        yield from client.notify(f"kv.{name}.meta", {
            "slots": 1, "key_size": _BODY, "value_size": _BODY})
        yield from table.put(_KEY, _amount(100))
        records.append(table)
    return records


def _views(client, count):
    views = []
    for i in range(count):
        views.append((yield from RKVStore.open(client, f"acct-{i}")))
    return views


def _balance(table):
    """``(version, balance)`` of *table*'s account (generator)."""
    version, _key_len, _key, value = yield from table.snapshot_slot(0)
    return version, value


def _move(amount, src, dst):
    def transfer(txn):
        a = int.from_bytes((yield from txn.get(src, _KEY)), "little")
        b = int.from_bytes((yield from txn.get(dst, _KEY)), "little")
        yield from txn.put(src, _KEY, _amount(a - amount))
        yield from txn.put(dst, _KEY, _amount(b + amount))

    return transfer


def _refuses_use(txn, view):
    """A finished transaction refuses any further op (generator)."""
    with pytest.raises(TxnMisuseError, match="already aborted"):
        yield from txn.get(view, _KEY)


def test_crossed_intents_abort_both_and_leave_every_word_even():
    """Hosts 1 and 2 each hold one of two records and transfer between
    them at the same instant.  Each one's CAS reaches its own server
    first, so each wins exactly one intent: a deadlock if either
    waited.  Both abort and release, and both commit on retry."""
    cluster = _cluster()
    sim = cluster.sim
    gate = sim.event()

    def attempt(host, amount):
        src, dst = yield from _views(cluster.client(host), 2)
        runtime = TxnRuntime(cluster.client(host), label=f"crossed-{host}")
        txn = runtime.begin()
        yield from _move(amount, src, dst)(txn)
        yield gate  # commit in lockstep
        with pytest.raises(TxnConflictError, match="write intent"):
            yield from txn.commit()
        return runtime, src, dst

    def app():
        records = yield from _records(cluster, homes=(1, 2))
        procs = [cluster.spawn(attempt(1, 3)), cluster.spawn(attempt(2, 5))]
        yield sim.timeout(1e-3)
        gate.succeed()
        yield sim.all_of(procs)
        for rec in records:  # every won intent was released
            assert (yield from read_word(rec.mapping, 0)) == 2
        # both retry loops start in lockstep too; the clients' jitter
        # streams differ, so they drift apart and both get through
        retries = [cluster.spawn(runtime.run(_move(amount, src, dst)))
                   for (runtime, src, dst), amount
                   in zip((p.value for p in procs), (3, 5))]
        yield sim.all_of(retries)
        balances = []
        for rec in records:
            version, body = yield from _balance(rec)
            assert version == 6  # two commits each, nothing else
            balances.append(int.from_bytes(body, "little"))
        return balances, [p.value[0] for p in procs]

    balances, runtimes = cluster.run_app(app())
    assert balances == [100 - 8, 100 + 8]
    assert [rt.commits for rt in runtimes] == [1, 1]
    # each lost exactly one of its two intents in the lockstep attempt
    assert all(rt.conflicts >= 1 for rt in runtimes)
    assert obs_for(cluster.sim).metrics.total(
        "coord.seqlock.lock_failures") >= 2


@pytest.mark.parametrize("where", ["ack", "launch"])
def test_eaten_cas_completions_acquire_each_lock_exactly_once(where):
    """Both intents ride one doorbell to one server.  ``ack``: both
    CASes land and both completions are lost — each is resolved by
    reading its token back, and the commit goes through on the first
    attempt.  ``launch``: the first CAS is dropped, so the second is
    flushed behind it and (a PSN gap) never executed — both read back
    the untouched version, the attempt aborts holding nothing, and the
    retry commits."""
    cluster = _cluster()
    client = cluster.client(1)
    eaten = []

    def hook(_host, wr):
        if wr.opcode is not Opcode.ATOMIC_CAS or len(eaten) >= (
                2 if where == "ack" else 1):
            return ""
        eaten.append(wr)
        return f"eaten at {where}"

    def app():
        records = yield from _records(cluster, homes=(2, 2))
        src, dst = yield from _views(client, 2)
        runtime = TxnRuntime(client, label="eaten")
        setattr(client.nic,
                "ack_fault_hook" if where == "ack" else "fault_hook", hook)
        yield from runtime.run(_move(7, src, dst))
        snapshots = []
        for rec in records:
            snapshots.append((yield from _balance(rec)))
        return runtime, snapshots

    runtime, snapshots = cluster.run_app(app())
    assert len(eaten) == (2 if where == "ack" else 1)
    # one commit moved each version by exactly one publish
    assert snapshots == [(4, (93).to_bytes(8, "little")),
                         (4, (107).to_bytes(8, "little"))]
    assert runtime.commits == 1
    assert runtime.aborts == (0 if where == "ack" else 1)


def test_retry_jitter_does_not_restart_with_every_transaction():
    """Each ``run`` below aborts exactly once (a rival bumps the record
    under its first attempt) and so pauses exactly once.  The pauses
    must differ: the jitter is a stream the runtime draws on, not one
    re-derived from (seed, label, host) by every attempt — and the
    whole run still replays bit-for-bit."""

    def pauses():
        cluster = _cluster()
        sim = cluster.sim
        client = cluster.client(1)

        def app():
            (record,) = yield from _records(cluster, homes=(2,))
            (view,) = yield from _views(client, 1)
            runtime = TxnRuntime(client, label="jitter")
            paused = []
            for _ in range(3):
                attempts = []

                def bump(txn):
                    body = yield from txn.get(view, _KEY)
                    if not attempts:
                        yield from record.put(_KEY, body)  # invalidate it
                    attempts.append(sim.now)
                    yield from txn.put(view, _KEY, body)

                yield from runtime.run(bump)
                assert len(attempts) == 2
                paused.append(attempts[1] - attempts[0])
            return paused

        return cluster.run_app(app())

    first, again = pauses(), pauses()
    assert len(set(first)) == 3, f"the retry pause repeats: {first}"
    assert first == again


@pytest.mark.parametrize("dead", [2, 3])
def test_an_unsettled_intent_still_releases_every_one_it_won(dead):
    """One record's server dies under the intent flush: its CAS times
    out, the read-back of its word cannot be served either, and the
    commit fails with the data path's error — but not before it has
    released the other record.  Both CASes left on the one flush, so
    the survivor's has landed whether it is settled before the dead one
    (``dead=3``) or was still waiting behind it (``dead=2``): every
    intent is settled before the failure is raised."""
    cluster = _cluster()
    client = cluster.client(1)

    def app():
        records = yield from _records(cluster, homes=(2, 3))
        src, dst = yield from _views(client, 2)
        txn = TxnRuntime(client, label="unsettled").begin()
        yield from _move(7, src, dst)(txn)
        cluster.kill_server(dead)
        with pytest.raises(RegionUnavailableError):
            yield from txn.commit()
        yield from _refuses_use(txn, src)
        survivor = records[3 - dead]
        word = yield from read_word(survivor.mapping, 0)
        return word, (yield from _balance(survivor))

    assert cluster.run_app(app()) == (2, (2, (100).to_bytes(8, "little")))


def test_a_failed_validation_read_leaves_no_future_dangling():
    """A read-only transaction over three records validates with three
    version-word READs on one flush.  The wire eats every READ to the
    first record's server, so the first future fails — and the commit
    must still have waited for (and, under the sanitizer, acked) the
    other two before it raises: a future nobody waits on keeps its
    error unobserved and stalls the actor's RSan watermark, which hides
    later races."""
    cluster = build_cluster(num_machines=4, server_capacity=16 * MiB,
                            config=RStoreConfig(sanitize=True))
    client = cluster.client(1)
    batches = []

    def recording_batch(make=client.batch):
        batches.append(make())
        return batches[-1]

    def app():
        yield from _records(cluster, homes=(2, 3, 3))
        views = yield from _views(client, 3)
        txn = TxnRuntime(client, label="dangling").begin()
        for view in views:
            yield from txn.get(view, _KEY)
        deaf = views[0].mapping.desc.stripes[0].primary.rkey
        client.nic.fault_hook = lambda _host, wr: (
            "eaten" if wr.opcode is Opcode.RDMA_READ and wr.rkey == deaf
            else "")
        client.batch = recording_batch
        with pytest.raises(RegionUnavailableError):
            yield from txn.commit()
        yield from _refuses_use(txn, views[0])

    cluster.run_app(app())
    (validation,) = batches
    assert len(validation.futures) == 3
    assert validation.futures[0].error is not None
    for fut in validation.futures:
        assert fut.done and fut._rsan.acked
