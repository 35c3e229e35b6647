"""The ordered publish's hazard, and the model rule that removes it.

``seqlock.publishes`` posts ``[WRITE body, WRITE version after=body]``
on one doorbell.  That is sound only because an RC responder executes
nothing past a lost request: were the word executed although the body
in front of it was dropped, every reader would validate a fresh version
over a stale body until the body's replay landed half a second later.
The first test is that reader; its twin runs the same schedule with the
sequence check switched off and must see the tear — the check, not
luck, is what keeps the first one clean.  The rest covers the redo of a
broken pair: it never rewrites a word that is no longer ours.
"""

import pytest

from repro.cluster import build_cluster
from repro.coord.seqlock import mint_token, snapshots
from repro.obs import obs_for
from repro.rdma.qp import QueuePair
from repro.rdma.types import Opcode
from repro.simnet.config import MiB
from repro.simnet.faults import FaultInjector
from tests.probes import read_record, record, write_record

_BODY = 120


def _tagged(version: int) -> bytes:
    return version.to_bytes(8, "little") * (_BODY // 8)


def _cluster(faults):
    return build_cluster(num_machines=4, server_capacity=16 * MiB,
                         faults=faults)


def _only_body_writes(nic, every=1, attr="fault_hook"):
    """Narrow host's injected wire faults to every *every*-th WRITE of
    a record body (the version word's 8-byte WRITEs never count)."""
    inject, seen = getattr(nic, attr), []

    def hook(host, wr):
        if wr.opcode is not Opcode.RDMA_WRITE or wr.length <= 8:
            return ""
        seen.append(wr)
        return inject(host, wr) if len(seen) % every == 0 else ""

    setattr(nic, attr, hook)
    return seen


def _publish_next(rec):
    """Lock *rec* from the version it shows, uncontended, and publish
    the next version's tagged body (generator)."""
    version, _body = yield from read_record(rec)
    token = mint_token(rec.mapping.client)
    assert (yield from rec.try_lock(version, token))
    yield from rec.publish(token, _tagged(version + 2), version + 2)


def _unchained(cluster) -> int:
    return obs_for(cluster.sim).metrics.total(
        "coord.seqlock.publishes_unchained")


def _publish_under_dropped_bodies(publishes=10):
    """Host 1 publishes version-tagged bodies while three of its body
    WRITEs are dropped at launch; host 2 reads throughout.  Returns
    (snapshots taken, snapshots whose body is not their version's)."""
    faults = FaultInjector(seed=7).fail_wire(1, start=0.0, duration=1e9,
                                             times=3)
    cluster = _cluster(faults)
    _only_body_writes(cluster.nic(1), every=3)
    sim = cluster.sim
    done = []

    def writer():
        rec = yield from record(cluster.client(1), "tagged", _BODY)
        for _ in range(publishes):
            yield from _publish_next(rec)
            yield sim.timeout(0.05)
        done.append(True)

    def reader():
        rec = yield from record(cluster.client(2), "tagged", _BODY)
        taken = stale = 0
        while not done:
            # ``read_record`` less its retry budget: the writer holds
            # the word for the half second a dropped body takes to fail
            (snapshot,) = yield from snapshots(rec.mapping, (0,),
                                               rec.record_size)
            if snapshot is not None:
                taken += 1
                stale += snapshot[1] != _tagged(snapshot[0])
            yield sim.timeout(200e-6)
        return taken, stale

    def app():
        rec = yield from record(cluster.client(0), "tagged", _BODY,
                                create=True)
        yield from write_record(rec, _tagged(2))
        procs = [cluster.spawn(writer()), cluster.spawn(reader())]
        yield sim.all_of(procs)
        version, body = yield from read_record(rec)
        assert (version, body) == (2 + 2 * publishes, _tagged(version))
        return procs[1].value

    taken, stale = cluster.run_app(app())
    assert faults.injected["wire"] == 3
    assert _unchained(cluster) == 3  # each broken pair was redone
    return taken, stale


def test_no_reader_validates_a_fresh_version_over_a_stale_body():
    taken, stale = _publish_under_dropped_bodies()
    assert taken > 1000
    assert stale == 0


def test_without_the_sequence_check_the_same_schedule_tears(monkeypatch):
    # the parent's fault model: a request queued behind a lost one is
    # executed anyway, so the version word lands without its body
    monkeypatch.setattr(QueuePair, "_expects", lambda self, wr: True)
    taken, stale = _publish_under_dropped_bodies()
    assert stale > taken // 2


@pytest.mark.parametrize("rival", [False, True],
                         ids=["still-free", "retaken"])
def test_a_redone_publish_never_touches_a_word_it_no_longer_holds(rival):
    """The body WRITE's ack is lost: body and word both landed, the
    record is free, yet both futures fail.  The redo re-reads the word
    first — and finds either the version it published or, with a rival
    writer in between, the rival's lock word, which a blind rewrite
    would have wiped out (and a blind body replay would have torn)."""
    faults = FaultInjector(seed=7).fail_wire(1, start=0.0, duration=1e9,
                                             times=1, where="ack")
    cluster = _cluster(faults)
    bodies = _only_body_writes(cluster.nic(1), attr="ack_fault_hook")
    sim = cluster.sim

    def victim():
        rec = yield from record(cluster.client(1), "guarded", _BODY)
        yield from _publish_next(rec)

    def app():
        rec = yield from record(cluster.client(0), "guarded", _BODY,
                                create=True)
        yield from write_record(rec, _tagged(2))
        other = yield from record(cluster.client(2), "guarded", _BODY)
        token = mint_token(other.mapping.client)
        proc = cluster.spawn(victim())
        # the pair lands a round trip after it is posted; its redo waits
        # out a 20 ms remap backoff (the fault errored the QP)
        while (yield from read_record(other)) != (4, _tagged(4)):
            yield sim.timeout(20e-6)
        if rival:
            assert (yield from other.try_lock(4, token))
        yield proc
        if rival:
            # still the rival's token, not the victim's version
            assert (yield from other.mapping.read(0, 8)) == token.to_bytes(
                8, "little")
            yield from other.publish(token, _tagged(6), 6)
        return (yield from read_record(rec))

    version, body = cluster.run_app(app())
    assert faults.injected["wire"] == 1
    assert _unchained(cluster) == 1
    assert (version, body) == ((6, _tagged(6)) if rival else (4, _tagged(4)))
    assert len(bodies) == 1  # the body was not replayed over the free record
