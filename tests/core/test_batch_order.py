"""``IoBatch.in_order``: when a batch vouches for remote execution order.

The answer is a proof, not a guess: true only when every piece of both
futures rode one queue pair, first before second, each posted exactly
once.  Protocols that chain dependent READs on one doorbell (the
SeqLock validated read) fall back to a separate round trip whenever
this says no.
"""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import RegionUnavailableError
from repro.core.pipeline import DATA_BATCH_WINDOW_PER_QP
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector
from tests.probes import host_count, resolution_order

_STRIPE = 4 * KiB


def _cluster(faults=None, **config):
    return build_cluster(num_machines=4,
                         config=RStoreConfig(stripe_size=_STRIPE, **config),
                         server_capacity=16 * MiB, faults=faults)


def _mapped(client, name):
    yield from client.alloc(name, 16 * _STRIPE)
    mapping = yield from client.map(name)
    yield from mapping.write(0, bytes(range(256)) * (16 * _STRIPE // 256))
    return mapping


def test_same_queue_pair_is_in_order_in_queue_order_only():
    cluster = _cluster()
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "one-qp")
        batch = client.batch()
        first = yield from batch.read(mapping, 0, 64)
        second = yield from batch.read(mapping, 128, 8)
        assert not batch.in_order(first, second)  # nothing posted yet
        yield from batch.flush()
        assert not batch.in_order(first, second)  # may yet be replayed
        yield from batch.wait_all()
        assert batch.in_order(first, second)
        assert not batch.in_order(second, first)
        assert not batch.in_order(first, first)
        # a later flush of the same batch posts behind the earlier one
        third = yield from batch.read(mapping, 256, 8)
        yield from batch.flush()
        yield from third.wait()
        assert batch.in_order(second, third)
        # another batch's future: this batch staged nothing of it
        other = client.batch()
        stranger = yield from other.read(mapping, 0, 8)
        yield from other.flush()
        yield from stranger.wait()
        assert not batch.in_order(first, stranger)
        assert not other.in_order(first, stranger)

    cluster.run_app(app())


def test_two_queue_pairs_prove_nothing():
    cluster = _cluster()
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "two-qps")
        stripes = mapping.desc.stripes
        assert stripes[0].host_id != stripes[1].host_id
        batch = client.batch()
        here = yield from batch.read(mapping, 0, 64)
        there = yield from batch.read(mapping, _STRIPE, 64)
        spanning = yield from batch.read(mapping, _STRIPE - 32, 64)
        word = yield from batch.read(mapping, _STRIPE - 32, 8)
        yield from batch.flush()
        yield from batch.wait_all()
        assert not batch.in_order(here, there)
        # one piece of ``spanning`` shares ``word``'s queue pair, the
        # other does not: every piece has to
        assert not batch.in_order(spanning, word)
        assert batch.in_order(here, word)

    cluster.run_app(app())


def test_a_replayed_future_is_never_in_order():
    faults = FaultInjector(seed=3).fail_wire(1, start=1.0, duration=30.0,
                                             times=1)
    cluster = _cluster(faults=faults)
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "replayed")
        yield cluster.sim.timeout(2.0)  # into the fault window
        batch = client.batch()
        futs = []
        for i in range(3):
            futs.append((yield from batch.read(mapping, 128 * i, 8)))
        yield from batch.flush()
        values = yield from batch.wait_all()
        assert values == [bytes(range(256))[128 * i % 256:][:8]
                          for i in range(3)]
        return batch, futs

    batch, (first, second, third) = cluster.run_app(app())
    assert faults.injected["wire"] == 1
    # the head of the doorbell failed and flushed the two behind it:
    # all three were re-posted one by one
    assert host_count(client, "client.pieces_replayed") == 3
    assert not batch.in_order(first, second)
    assert not batch.in_order(second, third)


def test_a_window_split_across_doorbells_is_still_in_order():
    cluster = _cluster()
    client = cluster.client(1)
    count = DATA_BATCH_WINDOW_PER_QP + 8

    def app():
        mapping = yield from _mapped(client, "split")
        yield from mapping.read(0, 8)  # warm the QP
        bells = client.nic.doorbells_rung
        batch = client.batch()
        futs = []
        for i in range(count):
            # gaps keep the pieces from coalescing into one WR
            futs.append((yield from batch.read(mapping, 64 * i, 8)))
        posted = yield from batch.flush()
        yield from batch.wait_all()
        assert posted == count
        assert client.nic.doorbells_rung - bells == 2
        return batch, futs

    batch, futs = cluster.run_app(app())
    assert batch.in_order(futs[0], futs[-1])
    assert all(batch.in_order(a, b) for a, b in zip(futs, futs[1:]))


def test_two_sided_ablation_stages_nothing():
    cluster = _cluster(two_sided_data_path=True)
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "ablated")
        batch = client.batch()
        first = yield from batch.read(mapping, 0, 64)
        second = yield from batch.read(mapping, 0, 8)
        yield from batch.flush()
        assert (yield from batch.wait_all()) == [bytes(range(64)),
                                                 bytes(range(8))]
        assert not batch.in_order(first, second)

    cluster.run_app(app())


# -- ordered writes: ``IoBatch.write(after=)`` --------------------------------
#
# The write twin of ``in_order``: instead of asking afterwards whether a
# pair ran in order, the dependent is posted so that it cannot run out
# of order — or it fails unexecuted, and is never replayed.

_OLD = bytes(range(256))


def _ordered_pair(client, mapping, first_at, first_len, then_at):
    """Queue ``[write first, write dependent after=first]`` and flush."""
    batch = client.batch()
    first = yield from batch.write(mapping, first_at, b"F" * first_len)
    then = yield from batch.write(mapping, then_at, b"T" * 8, after=first)
    yield from batch.flush()
    for fut in (first, then):
        try:
            yield from fut.wait()
        except RegionUnavailableError:
            pass
    return batch, first, then


def test_an_ordered_write_rides_its_predecessors_doorbell():
    cluster = _cluster()
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "ordered")
        bells = client.nic.doorbells_rung
        batch, first, then = yield from _ordered_pair(client, mapping,
                                                      0, 64, 128)
        assert first.error is None and then.error is None
        assert client.nic.doorbells_rung - bells == 1
        assert batch.in_order(first, then)
        assert (yield from mapping.read(0, 64)) == b"F" * 64
        assert (yield from mapping.read(128, 8)) == b"T" * 8

    cluster.run_app(app())


def test_a_lost_predecessor_takes_the_dependent_with_it_unreplayed():
    faults = FaultInjector(seed=3).fail_wire(1, start=1.0, duration=30.0,
                                             times=1)
    cluster = _cluster(faults=faults)
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "lost-first")
        yield cluster.sim.timeout(2.0)  # into the fault window
        _batch, first, then = yield from _ordered_pair(client, mapping,
                                                       0, 64, 128)
        # neither half is replayed: re-posted on its own, either would
        # run out of order.  Whoever chained the pair redoes it.
        assert first.error is not None and then.error is not None
        assert client.retries == 0 and host_count(client, "client.pieces_replayed") == 0
        # the dependent sat behind a lost request: never executed
        assert (yield from mapping.read(128, 8)) == _OLD[128:136]
        assert (yield from mapping.read(0, 64)) == _OLD[:64]

    cluster.run_app(app())
    assert faults.injected["wire"] == 1


@pytest.mark.parametrize("case", ["spanning", "replicated", "two-sided"])
def test_an_unchainable_dependent_fails_unexecuted(case):
    cluster = _cluster(two_sided_data_path=(case == "two-sided"))
    client = cluster.client(1)

    def app():
        if case == "replicated":
            yield from client.alloc("unchained", 16 * _STRIPE, replication=2)
            mapping = yield from client.map("unchained")
            yield from mapping.write(0, _OLD)
        else:
            mapping = yield from _mapped(client, "unchained")
        # spanning: the predecessor's two pieces go to two servers
        at = _STRIPE - 32 if case == "spanning" else 0
        _batch, first, then = yield from _ordered_pair(client, mapping,
                                                       at, 64, 128)
        assert first.error is None
        assert (yield from mapping.read(at, 64)) == b"F" * 64
        assert isinstance(then.error, RegionUnavailableError)
        assert "ordered write" in str(then.error)
        assert client.retries == 0
        assert (yield from mapping.read(128, 8)) == _OLD[128:136]

    cluster.run_app(app())


@pytest.mark.parametrize("then_at", [_STRIPE - 8, _STRIPE - 4])
def test_a_dependent_on_another_queue_pair_is_unstaged(then_at):
    """The predecessor sits wholly in stripe 1 — it has a route — but
    the 8-byte dependent lands in stripe 0, on another server's queue
    pair (or half on each).  That is only known once its pieces are
    staged: they are taken back out, so nothing of it is posted."""
    cluster = _cluster()
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "elsewhere")
        stripes = mapping.desc.stripes
        assert stripes[0].host_id != stripes[1].host_id
        posted, bells = client.nic.ops_posted, client.nic.doorbells_rung
        _batch, first, then = yield from _ordered_pair(
            client, mapping, _STRIPE + 64, 64, then_at)
        assert first.error is None
        # the predecessor's one WR on its one doorbell, and no more
        assert client.nic.ops_posted - posted == 1
        assert client.nic.doorbells_rung - bells == 1
        assert isinstance(then.error, RegionUnavailableError)
        assert "ordered write" in str(then.error)
        assert client.retries == 0 and host_count(client, "client.pieces_replayed") == 0
        assert not mapping._inflight  # the failed half is not left behind
        assert (yield from mapping.read(_STRIPE + 64, 64)) == b"F" * 64
        assert (yield from mapping.read(then_at, 8)) == (
            _OLD * 17)[then_at % 256:][:8]

    cluster.run_app(app())


def test_a_window_split_keeps_the_ordered_pair():
    cluster = _cluster()
    client = cluster.client(1)

    def app():
        mapping = yield from _mapped(client, "split-pair")
        yield from mapping.read(0, 8)  # warm the QP
        bells = client.nic.doorbells_rung
        batch = client.batch()
        # gaps keep the fillers from coalescing; the pair straddles the
        # window: predecessor last on one doorbell, dependent first on
        # the next
        for i in range(DATA_BATCH_WINDOW_PER_QP - 1):
            yield from batch.write(mapping, 1024 + 64 * i, b"x" * 8)
        first = yield from batch.write(mapping, 0, b"F" * 64)
        then = yield from batch.write(mapping, 128, b"T" * 8, after=first)
        posted = yield from batch.flush()
        order = yield from resolution_order(cluster, (first, then))
        yield from batch.wait_all()
        assert posted == DATA_BATCH_WINDOW_PER_QP + 1
        assert client.nic.doorbells_rung - bells == 2
        assert batch.in_order(first, then)
        # the predecessor resolved first, and strictly earlier
        assert [index for index, _when in order] == [0, 1]
        assert order[0][1] < order[1][1]
        assert (yield from mapping.read(128, 8)) == b"T" * 8

    cluster.run_app(app())
