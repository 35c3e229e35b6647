"""The metadata write-ahead log: append, checkpoint, replay.

Unit-level guarantees the crash-recovery protocol leans on:

* records are serialized **at append time** — mutating the live object
  afterwards cannot reach the log, which is what makes append-before-
  reply a real commit point;
* replay folds the tail over the checkpoint: region upserts, frees
  that delete (and never resurrect), server membership upserts, and a
  monotonic epoch;
* checkpointing truncates the tail and survives replay;
* ``next_region_id`` is re-derived past every replayed region so a
  restarted master never reuses an id;
* every append charges its fsync latency on the simulated clock.
"""

import random

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.metalog import MetaLog, RecoveredState
from repro.core.region import RegionDesc, StripeDesc, StripeReplica
from repro.simnet.config import KiB, MiB
from repro.simnet.kernel import Simulator

APPEND_S = 5e-6


def _region(name: str, region_id: int = 1, epoch: int = 0) -> RegionDesc:
    return RegionDesc(
        region_id=region_id,
        name=name,
        size=64,
        stripe_size=64,
        stripes=[
            StripeDesc(
                index=0, length=64,
                replicas=(StripeReplica(host_id=1, addr=4096, rkey=7),),
            )
        ],
        epoch=epoch,
    )


def _drive(sim: Simulator, generator):
    return sim.run(until=sim.process(generator))


def test_append_replay_round_trip():
    sim = Simulator()
    log = MetaLog(sim, append_latency_s=APPEND_S)

    def writer():
        yield from log.append("region", _region("a", region_id=3))
        yield from log.append("server", (2, 4096, 11, 0, True))
        yield from log.append("epoch", 1)
        yield from log.append("server", (2, 4096, 11, 1, False))
        yield from log.append("epoch", 2)

    _drive(sim, writer())
    state = log.replay()
    assert sorted(state.regions) == ["a"]
    assert state.regions["a"].region_id == 3
    assert state.servers == {2: (4096, 11, 1, False)}
    assert state.epoch == 2
    assert state.next_region_id == 4
    assert log.appends == 5 and log.replays == 1


def test_records_are_serialized_at_append_time():
    sim = Simulator()
    log = MetaLog(sim)
    region = _region("mutable", epoch=0)

    def writer():
        yield from log.append("region", region)

    _drive(sim, writer())
    # the master moves on after replying; the log must not follow
    region.epoch = 9
    region.available = False
    replayed = log.replay().regions["mutable"]
    assert replayed.epoch == 0
    assert replayed.available
    # and the replayed copy is safe to mutate without touching the log
    replayed.version = 99
    assert log.replay().regions["mutable"].version == 1


def test_replay_upserts_the_latest_region_snapshot():
    sim = Simulator()
    log = MetaLog(sim)
    old = _region("r", epoch=0)
    new = _region("r", epoch=2)
    new.version = 4

    def writer():
        yield from log.append("region", old)
        yield from log.append("region", new)

    _drive(sim, writer())
    state = log.replay()
    assert state.regions["r"].epoch == 2
    assert state.regions["r"].version == 4


def test_free_deletes_and_never_resurrects():
    sim = Simulator()
    log = MetaLog(sim, checkpoint_every=1)

    def writer():
        yield from log.append("region", _region("doomed"))
        # checkpoint captures the region...
        yield from log.maybe_checkpoint(
            lambda: RecoveredState(regions={"doomed": _region("doomed")})
        )
        # ...and the free lands in the tail afterwards
        yield from log.append("free", "doomed")

    _drive(sim, writer())
    state = log.replay()
    assert "doomed" not in state.regions


def test_checkpoint_truncates_the_tail():
    sim = Simulator()
    log = MetaLog(sim, checkpoint_every=2)

    def writer():
        yield from log.append("region", _region("a", region_id=1))
        yield from log.append("region", _region("b", region_id=2))
        yield from log.maybe_checkpoint(lambda: RecoveredState(
            regions={"a": _region("a", region_id=1),
                     "b": _region("b", region_id=2)},
            epoch=1,
        ))
        # below the threshold: no new checkpoint
        yield from log.append("region", _region("c", region_id=3))
        yield from log.maybe_checkpoint(RecoveredState)

    _drive(sim, writer())
    assert log.checkpoints == 1
    assert len(log) == 1  # only the post-checkpoint tail survives
    state = log.replay()
    assert sorted(state.regions) == ["a", "b", "c"]
    assert state.epoch == 1
    assert state.next_region_id == 4


def test_append_charges_fsync_latency():
    sim = Simulator()
    log = MetaLog(sim, append_latency_s=APPEND_S)

    def writer():
        before = sim.now
        yield from log.append("epoch", 1)
        return sim.now - before

    elapsed = _drive(sim, writer())
    assert elapsed == pytest.approx(APPEND_S)


def test_replay_of_an_empty_log_is_a_clean_boot():
    log = MetaLog(Simulator())
    state = log.replay()
    assert state.regions == {} and state.servers == {}
    assert state.epoch == 0 and state.next_region_id == 1
    # an empty log is still falsy by length — the master must adopt it
    # anyway (regression guard for the shared-log wiring)
    assert len(log) == 0 and not log._tail


def test_checkpoint_at_the_commit_point_loses_no_region():
    """Regression: the checkpoint must not eat the record that trips it.

    ``_alloc`` appends the region record *before* inserting it into
    ``self.regions``.  The master used to checkpoint right after each
    append — so a checkpoint tripped by an alloc's own record would
    snapshot state without that region and then truncate its record:
    one region silently lost per checkpoint boundary.  Checkpointing
    before the append closes the window.
    """
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB,
                            metalog_checkpoint_every=4),
        server_capacity=16 * MiB,
    )
    names = [f"r{i}" for i in range(12)]

    def app():
        client = cluster.client(1)
        for name in names:
            yield from client.alloc(name, 64 * KiB)
        assert cluster.metalog.checkpoints >= 2  # truncation happened
        cluster.master.crash()
        yield from cluster.restart_master()
        survivors = yield from client.list_regions()
        assert survivors == sorted(names)

    cluster.run_app(app())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_overlapping_checkpoints_lose_no_committed_region(seed):
    """Regression: every handler that logged while a checkpoint was
    being written started a checkpoint of its own, and each one cleared
    the whole tail when it finished — records appended after its
    snapshot too.  Now one is written at a time, and it truncates only
    the prefix its snapshot covers."""
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB, seed=seed),
        server_capacity=64 * MiB,
    )
    rng = random.Random(seed)

    def storm(client, tag):
        for i in range(150):
            yield from client.alloc(f"{tag}{i}", 64 * KiB)
            yield cluster.sim.timeout(rng.uniform(0, 30e-6))

    procs = [cluster.spawn(storm(cluster.client(host), f"c{host}-"))
             for host in (1, 2, 3)]
    for proc in procs:
        cluster.run(until=proc)
    log = cluster.metalog
    assert sorted(log.replay().regions) == sorted(cluster.master.regions)
    # no more checkpoints than were due
    assert 0 < log.checkpoints <= log.appends // log.checkpoint_every


def test_an_append_between_checkpoints_builds_no_state_snapshot():
    """Regression: ``_log`` built a full snapshot (every region, server
    and note) on every append, before the log checked whether a
    checkpoint was due — O(live regions) per control op, thrown away
    63 times in 64.  The builder now runs only when one is due."""
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    master = cluster.master
    built = []

    def spy(snapshot=master._snapshot_state):
        built.append(snapshot())
        return built[-1]

    master._snapshot_state = spy
    allocs = 200

    def app():
        client = cluster.client(1)
        for i in range(allocs):
            yield from client.alloc(f"r{i}", 4 * KiB)

    cluster.run_app(app())
    every = cluster.metalog.checkpoint_every
    assert cluster.metalog.checkpoints >= allocs // every - 1
    assert len(built) <= allocs // every + 1, len(built)


def test_free_after_restart_of_a_region_whose_server_died():
    """Regression: a server dead at a master restart is not re-added to
    the allocator, so ``free`` of a region that died with its only
    server looked that host up there and raised ``KeyError`` — after
    the ``free`` record had committed, so the region was gone anyway."""
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )

    def app():
        client = cluster.client(1)
        yield from client.alloc("lost", 64 * KiB, preferred_host=3)
        cluster.kill_server(3)
        yield cluster.sim.timeout(1.0)
        cluster.crash_master()
        yield from cluster.restart_master()
        yield cluster.sim.timeout(1.0)
        assert cluster.master.allocator.get_server(3) is None
        assert (yield from client.free("lost")) is True
        assert (yield from client.list_regions()) == []

    cluster.run_app(app())


def test_note_records_replay_as_rendezvous_state():
    sim = Simulator()
    log = MetaLog(sim)

    def writer():
        yield from log.append("note", ("kv.t.meta", {"slots": 8}))
        yield from log.append("note", ("kv.t.meta", {"slots": 16}))

    _drive(sim, writer())
    state = log.replay()
    assert state.notes == {"kv.t.meta": {"slots": 16}}  # last write wins


def test_notes_survive_a_master_crash():
    """Regression: notes used to live only in master memory, so a
    crash silently dropped every published rendezvous payload —
    ``RKVStore.open`` after a restart then waited on ``kv.<name>.meta``
    forever.  A note is a logged mutation like any descriptor: replay
    must restore it, and the checkpoint path must carry it too."""
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB,
                            metalog_checkpoint_every=4),
        server_capacity=16 * MiB,
    )

    def app():
        client = cluster.client(1)
        yield from client.notify("early", {"k": 1})
        # push the early note through a checkpoint + truncation
        for i in range(8):
            yield from client.alloc(f"r{i}", 64 * KiB)
        yield from client.notify("late", {"k": 2})
        cluster.master.crash()
        yield from cluster.restart_master()
        # both eras of note — checkpointed and tail-replayed — serve
        early = yield from client.wait_note("early")
        late = yield from client.wait_note("late")
        assert early == {"k": 1}
        assert late == {"k": 2}

    cluster.run_app(app())


def test_unknown_record_kind_is_rejected():
    sim = Simulator()
    log = MetaLog(sim)

    def writer():
        yield from log.append("gibberish", 42)

    _drive(sim, writer())
    with pytest.raises(ValueError, match="unknown metalog record"):
        log.replay()
