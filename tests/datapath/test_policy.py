"""PathPolicy vocabulary, the op × mode matrix and the adaptive
chooser's prediction, checked against what the simulator measures."""

import pytest

from repro.cluster import build_cluster
from repro.coord.counter import AtomicCounter
from repro.core import RStoreConfig
from repro.datapath import ops
from repro.datapath.policy import (
    ALLOWED_MODES,
    FETCH_BYTES,
    ModeChooser,
    PathPolicy,
)
from repro.kv.hashkv import RKVStore
from repro.simnet.config import KiB, MiB
from tests.probes import miss_depth, same_home


def test_policy_vocabulary():
    assert PathPolicy.MODES == ("one_sided", "server_op", "remote_fetch")
    assert PathPolicy.POLICIES == PathPolicy.MODES + ("adaptive",)
    for policy in PathPolicy.POLICIES:
        assert PathPolicy.validate(policy) == policy
    with pytest.raises(ValueError):
        PathPolicy.validate("two_sided")
    with pytest.raises(ValueError):
        PathPolicy.validate(None)


def _remote_cluster():
    """An idle 4-machine cluster whose client host 1 serves no memory,
    so every op it runs crosses the fabric: the path the estimate
    prices."""
    return build_cluster(num_machines=4, server_hosts=[0, 2, 3],
                         config=RStoreConfig(stripe_size=64 * KiB),
                         server_capacity=64 * MiB)


def _chooser(policy, sizes=None):
    return ModeChooser(_remote_cluster().client(1), policy, sizes)


def _table_sizes(value_size, key_size=16):
    slot = ops.slot_size(key_size, value_size)
    return {"get": (key_size, slot), "put": (slot, 0)}


def test_a_handle_validates_its_policy():
    assert _chooser(None).policy == "one_sided"
    with pytest.raises(ValueError, match="unknown path policy"):
        _chooser("two_sided")


def test_the_matrix_is_what_the_design_says():
    one, srv, rfp = PathPolicy.MODES
    assert ALLOWED_MODES == {
        "get": (one, srv, rfp),
        "put": (one, srv),
        "burst": (one, srv),
        "delete": (one,),
        "multi_get": (one,),
    }


@pytest.mark.parametrize("policy, ran_as", [
    (None, dict.fromkeys(ALLOWED_MODES, "one_sided")),
    ("one_sided", dict.fromkeys(ALLOWED_MODES, "one_sided")),
    ("server_op", {"get": "server_op", "put": "server_op",
                   "burst": "server_op", "delete": "one_sided",
                   "multi_get": "one_sided"}),
    ("remote_fetch", {"get": "remote_fetch", "put": "server_op",
                      "burst": "server_op", "delete": "one_sided",
                      "multi_get": "one_sided"}),
])
def test_a_fixed_policy_runs_each_op_in_its_nearest_allowed_mode(policy,
                                                                 ran_as):
    chooser = _chooser(policy, _table_sizes(64))
    # whatever the walk expects: a fixed policy has nothing to choose
    for hops, miss in ((1, False), (16, True)):
        assert {op: chooser.pick(op, hops, miss)
                for op in ALLOWED_MODES} == ran_as


def test_adaptive_chooses_within_the_row():
    chooser = _chooser("adaptive", _table_sizes(8 * KiB))
    for op, allowed in ALLOWED_MODES.items():
        for hops in (1, 2, 16):
            for miss in (False, True):
                assert chooser.pick(op, hops, miss) in allowed


def test_sizes_narrow_adaptive_and_refuse_a_fixed_policy():
    slot = 96 * KiB  # over the 64 KiB channel, under the fetch buffer
    sizes = {"get": (16, slot), "put": (slot, 0)}
    chooser = _chooser("adaptive", sizes)
    assert chooser.pick("put", 1, False) == "one_sided"
    # a deep miss would rather not read 96 KiB slots one by one: the
    # fetch buffer is the server-side path left to it
    assert chooser.pick("get", 1, False) == "one_sided"
    assert chooser.pick("get", 4, True) == "remote_fetch"
    # a slot over the fetch buffer too leaves a lookup one candidate
    huge = FETCH_BYTES + 1
    over = _chooser("adaptive", {"get": (16, huge), "put": (huge, 0)})
    assert over.pick("get", 16, True) == "one_sided"
    with pytest.raises(ValueError, match="get as server_op"):
        _chooser("server_op", sizes)
    # remote_fetch stores as a server-op, which cannot carry the slot
    with pytest.raises(ValueError, match="put as server_op"):
        _chooser("remote_fetch", sizes)
    # a big key is a big *request* in every server-side mode
    with pytest.raises(ValueError, match="get as remote_fetch"):
        _chooser("remote_fetch", {"get": (slot, 64)})
    assert _chooser("one_sided", sizes).pick("put", 1, False) == "one_sided"


def test_selector_settles_on_the_fastest_mode():
    # the pick is the estimate's cheapest candidate, the earlier in the
    # row on a tie (a miss deposits nothing: remote fetch costs what a
    # server-op does, and the server-op comes first)
    chooser = _chooser("adaptive", _table_sizes(64))
    for op in ("get", "put", "burst"):
        for hops, miss in ((1, False), (2, False), (16, True)):
            costs = [chooser.estimate(op, mode, hops, miss)
                     for mode in ALLOWED_MODES[op]]
            best = ALLOWED_MODES[op][costs.index(min(costs))]
            assert chooser.pick(op, hops, miss) == best
    assert (chooser.estimate("get", "server_op", 16, True)
            == chooser.estimate("get", "remote_fetch", 16, True))


def test_op_classes_are_independent():
    # one handle, one walk depth: a lookup reads its slot one-sided, a
    # burst of as many FAAs ships
    chooser = _chooser("adaptive", _table_sizes(64))
    assert chooser.pick("get", 1, False) == "one_sided"
    assert chooser.pick("burst", 8, False) == "server_op"
    assert chooser.pick("get", 1, False) == "one_sided"


def test_restricted_mode_set_never_leaves_the_subset():
    # puts and bursts only run one_sided/server_op, however costly a
    # walk the put expects
    chooser = _chooser("adaptive", _table_sizes(32 * KiB))
    for hops in range(1, ops.PROBE_LIMIT + 1):
        for miss in (False, True):
            assert chooser.pick("put", hops, miss) in ALLOWED_MODES["put"]
            assert (chooser.pick("burst", hops, miss)
                    in ALLOWED_MODES["burst"])


# -- the estimate against the simulator ----------------------------------------
#
# Each case runs once per mode under that fixed policy; an adaptive
# handle on the same client, which shares its hints, says what it
# would pick.

SLOTS = 64


def _measure_kv(mode, case, value_size):
    """``(latency, (pick, window), remembered miss depth)`` of one
    *case* op run under *mode*, the last two as the adaptive handle
    sees the key just before the op."""
    cluster = _remote_cluster()
    client, sim = cluster.client(1), cluster.sim
    # one home slot for all: the last key's window is the others'
    keys = same_home(SLOTS, ops.PROBE_LIMIT + 1)
    key = {"get-miss": keys[-1], "get-cold": keys[2]}.get(case, keys[0])
    op = case.split("-")[0]

    def app():
        writer = yield from RKVStore.create(client, "t", slots=SLOTS,
                                            key_size=16,
                                            value_size=value_size)
        if case == "get-miss":
            for other in keys[:-1]:
                yield from writer.put(other, b"v")
        elif case == "get-cold":
            # another client writes the chain; this one has located keys
            # three deep on a chain of its own
            rival = yield from RKVStore.open(cluster.client(2), "t")
            for other in keys[:3]:
                yield from rival.put(other, b"v" * value_size)
            for other in same_home(SLOTS, 3, home=SLOTS // 2):
                yield from writer.put(other, b"v")
        elif case != "put-fresh":
            yield from writer.put(key, b"v" * value_size)
        store = yield from RKVStore.open(client, "t", path_policy=mode)
        adaptive = yield from RKVStore.open(client, "t",
                                            path_policy="adaptive")
        if case not in ("put-fresh", "get-cold"):
            yield from store.get(key)  # hint the key, or remember its miss
        picked = adaptive._pick(op, adaptive._hints.get(key))
        depth = miss_depth(adaptive, key)
        started = sim.now
        if op == "get":
            yield from store.get(key)
        else:
            yield from store.put(key, b"w" * value_size)
        return sim.now - started, picked, depth

    return cluster.run_app(app())


def _measure_burst(mode, burst):
    cluster = _remote_cluster()
    sim = cluster.sim

    def app():
        counter = yield from AtomicCounter.create(cluster.client(1), "c",
                                                  path_policy=mode)
        deltas = list(range(1, burst + 1))
        yield from counter.add_burst(deltas)
        started = sim.now
        yield from counter.add_burst(deltas)
        return sim.now - started

    return cluster.run_app(app())


def _ranked(costs):
    """Modes cheapest first, the earlier in the row on a tie."""
    return sorted(costs, key=costs.get)


@pytest.mark.parametrize("case, value_size, hops, miss", [
    ("get-hinted", 64, 1, False),
    ("get-hinted", 32 * KiB, 1, False),
    ("get-miss", 64, ops.PROBE_LIMIT, True),
    # a key this client never located, three deep
    ("get-cold", 64, 3, False),
    ("put-hinted", 64, 1, False),
    ("put-fresh", 64, 1, False),
])
def test_the_estimate_ranks_kv_modes_as_the_simulator_does(case, value_size,
                                                          hops, miss):
    op = case.split("-")[0]
    measured, picks, windows = {}, set(), set()
    for mode in ALLOWED_MODES[op]:
        measured[mode], (picked, window), depth = _measure_kv(
            mode, case, value_size)
        picks.add(picked)
        windows.add(window)
        # a remembered miss is remembered with the depth it walked
        assert depth == (hops if miss else None)
    # one set-up, one window, whichever mode the op then ran on
    (window,) = windows
    chooser = _chooser("adaptive", _table_sizes(value_size))
    estimated = {mode: chooser.estimate(op, mode, hops, miss, window)
                 for mode in measured}
    assert _ranked(estimated) == _ranked(measured), (
        f"{case} at {value_size} B: the estimate ranks "
        f"{_ranked(estimated)}, the simulator {_ranked(measured)}")
    assert picks == {_ranked(measured)[0]}, (
        f"{case} at {value_size} B: picked {picks}, the simulator's best "
        f"is {_ranked(measured)[0]}")


@pytest.mark.parametrize("burst", [1, 2, 8])
def test_the_estimate_ranks_burst_modes_as_the_simulator_does(burst):
    measured = {mode: _measure_burst(mode, burst)
                for mode in ALLOWED_MODES["burst"]}
    chooser = _chooser("adaptive")
    estimated = {mode: chooser.estimate("burst", mode, burst, False)
                 for mode in measured}
    assert _ranked(estimated) == _ranked(measured), (
        f"burst of {burst}: the estimate ranks {_ranked(estimated)}, the "
        f"simulator {_ranked(measured)}")
    assert chooser.pick("burst", burst, False) == _ranked(measured)[0], (
        f"burst of {burst}: picked {chooser.pick('burst', burst, False)}, "
        f"the simulator's best is {_ranked(measured)[0]}")
