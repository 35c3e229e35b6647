"""The validated read's and the ordered publish's proof obligations.

A SeqLock snapshot rides one doorbell — ``[READ record, READ word]`` —
and trusts the second READ as its validation only where
``IoBatch.in_order`` vouches for the pair.  These tests drive the three
cases where it must not: a record spanning servers, a replayed READ and
the two-sided ablation.  Each still has to return whole snapshots, and
each shows up in ``coord.seqlock.reads_revalidated``.  The writers here
publish ``[WRITE body, WRITE word after=body]`` the same way; where no
single queue pair can order that pair the word is written only once the
body has landed, counted in ``coord.seqlock.publishes_unchained``
(``tests/coord/test_publish_order.py`` breaks pairs with faults).
"""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.obs import obs_for
from repro.rdma.types import Opcode
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector
from tests.probes import host_count, read_record, record, write_record


def _cluster(stripe_size=64 * KiB, faults=None, **config):
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=stripe_size, **config),
        server_capacity=16 * MiB, faults=faults)


def _revalidated(cluster) -> int:
    return obs_for(cluster.sim).metrics.total(
        "coord.seqlock.reads_revalidated")


def _unchained(cluster) -> int:
    return obs_for(cluster.sim).metrics.total(
        "coord.seqlock.publishes_unchained")


def _churn(cluster, name, body_size, flips, pause_s=0.0):
    """Host 1 flips the record between all-``A`` and all-``B`` bodies,
    *pause_s* apart, while host 2 keeps reading (four reads to a
    flip); returns the distinct bodies the reader saw, each checked to
    be one whole published body."""
    sim = cluster.sim
    done = []

    def writer():
        rec = yield from record(cluster.client(1), name, body_size)
        for flip in range(flips):
            yield from write_record(rec, b"AB"[flip % 2:][:1] * body_size)
            yield sim.timeout(pause_s)
        done.append(True)

    def reader():
        rec = yield from record(cluster.client(2), name, body_size)
        seen = set()
        while not done:
            version, body = yield from read_record(rec)
            assert version % 2 == 0
            assert len(set(body)) == 1, f"torn snapshot at v{version}"
            seen.add(body[:1])
            yield sim.timeout(pause_s / 4)
        return seen

    def app():
        rec = yield from record(cluster.client(0), name, body_size,
                                create=True)
        yield from write_record(rec, b"A" * body_size)
        procs = [cluster.spawn(writer()), cluster.spawn(reader())]
        yield sim.all_of(procs)
        return procs[1].value

    return cluster.run_app(app())


def test_one_server_record_never_pays_the_fallback():
    cluster = _cluster()
    assert _churn(cluster, "whole", 256, flips=12) == {b"A", b"B"}
    assert _revalidated(cluster) == 0
    assert _unchained(cluster) == 0


def test_record_spanning_stripes_takes_the_fallback():
    # 4 KiB stripes under a 10 KiB body: the record's READ fans out to
    # three servers while the word's goes to the first alone, so no
    # single queue pair orders the pair
    cluster = _cluster(stripe_size=4 * KiB)
    assert _churn(cluster, "spanning", 10 * KiB, flips=12) == {b"A", b"B"}
    assert _revalidated(cluster) > 0
    # nor the publish: the body's WRITE fans out the same way, so every
    # one of the 13 publishes wrote its word after the body had landed
    assert _unchained(cluster) == 13


def test_word_and_body_on_two_servers_take_the_fallback():
    """The word ends exactly at a stripe boundary and the whole body
    sits on the next server: the body WRITE has a queue pair of its own
    to be followed on, the word's is another.  The batch finds that out
    only while staging the word, takes it back out, and the publish
    falls back — as for a body that spans."""
    stripe = 4 * KiB
    cluster = _cluster(stripe_size=stripe)
    client = cluster.client(1)

    def app():
        rec = yield from record(client, "boundary", 64, offset=stripe - 8,
                                create=True, size=2 * stripe)
        stripes = rec.mapping.desc.stripes
        assert stripes[0].host_id != stripes[1].host_id
        for flip in range(3):
            body = b"AB"[flip % 2:][:1] * 64
            assert (yield from write_record(rec, body)) == 2 * (flip + 1)
            assert (yield from read_record(rec)) == (2 * (flip + 1), body)

    cluster.run_app(app())
    assert _unchained(cluster) == 3
    assert host_count(client, "client.retries") == 0


@pytest.mark.parametrize("victim", [0, 1], ids=["record", "word"])
def test_replayed_read_of_the_pair_is_revalidated(victim):
    """One wire fault on the record READ or on the word READ of a pair:
    the victim (and whatever was flushed behind it) is re-posted on its
    own half a second later, several publishes on, so the pair's order
    is no longer the doorbell's.  The read revalidates and still
    returns a whole body."""
    faults = FaultInjector(seed=5).fail_wire(2, start=0.0, duration=1e9,
                                             times=1)
    cluster = _cluster(faults=faults)
    # the injector's one-shot window sees the reader's READs only from
    # the second pair on (the first warms the QP up), and then only
    # from the pair's ``victim``-th READ
    nic = cluster.nic(2)
    inject, reads = nic.fault_hook, []

    def hook(host, wr):
        if wr.opcode is not Opcode.RDMA_READ:
            return ""
        reads.append(wr)
        return inject(host, wr) if len(reads) > 2 + victim else ""

    nic.fault_hook = hook
    seen = _churn(cluster, "replayed", 256, flips=30, pause_s=0.05)
    assert faults.injected["wire"] == 1
    assert seen == {b"A", b"B"}
    assert _revalidated(cluster) > 0
    assert host_count(cluster.client(2), "client.retries") >= 1


def test_two_sided_ablation_reads_through_the_fallback():
    # the ablation stages no work request, so there is no queue order
    # to lean on: every validated read pays the separate validation
    cluster = _cluster(two_sided_data_path=True)
    assert _churn(cluster, "two-sided", 256, flips=6) == {b"A", b"B"}
    assert _revalidated(cluster) > 0
    assert _unchained(cluster) == 7  # and every publish the plain order
