"""PathPolicy vocabulary, the op × mode matrix and the adaptive
selector's control law."""

from types import SimpleNamespace

import pytest

from repro.core import RStoreConfig
from repro.datapath.policy import (
    ALLOWED_MODES,
    FETCH_BYTES,
    AdaptiveSelector,
    ModeChooser,
    PathPolicy,
)
from repro.simnet.config import KiB
from tests.probes import preferred_mode


def test_policy_vocabulary():
    assert PathPolicy.MODES == ("one_sided", "server_op", "remote_fetch")
    assert PathPolicy.POLICIES == PathPolicy.MODES + ("adaptive",)
    for policy in PathPolicy.POLICIES:
        assert PathPolicy.validate(policy) == policy
    with pytest.raises(ValueError):
        PathPolicy.validate("two_sided")
    with pytest.raises(ValueError):
        PathPolicy.validate(None)


def _chooser(policy, sizes=None, **config):
    client = SimpleNamespace(config=RStoreConfig(**config),
                             sim=SimpleNamespace(now=0.0), setup_events=0)
    return ModeChooser(client, policy, sizes)


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
    chooser = _chooser(policy)
    # never timed: a fixed policy has nothing to learn
    assert {op: chooser.pick(op) for op in ALLOWED_MODES} == {
        op: (mode, None) for op, mode in ran_as.items()}


def test_adaptive_chooses_within_the_row_and_times_only_a_choice():
    chooser = _chooser("adaptive")
    for op, allowed in ALLOWED_MODES.items():
        for _ in range(3 * len(allowed)):
            mode, token = chooser.pick(op)
            assert mode in allowed
            assert (token is None) == (len(allowed) == 1)
            chooser.done(op, mode, token)


def test_sizes_narrow_adaptive_and_refuse_a_fixed_policy():
    slot = 96 * KiB  # over the 64 KiB channel, under the fetch buffer
    sizes = {"get": (16, slot), "put": (slot, 0)}
    chooser = _chooser("adaptive", sizes)
    assert chooser.pick("put") == ("one_sided", None)
    seen = set()
    for _ in range(8):
        mode, token = chooser.pick("get")
        seen.add(mode)
        chooser.done("get", mode, token)
    assert seen == {"one_sided", "remote_fetch"}
    # a slot over the fetch buffer too leaves a lookup one candidate
    huge = FETCH_BYTES + 1
    over = _chooser("adaptive", {"get": (16, huge), "put": (huge, 0)})
    assert over.pick("get") == ("one_sided", None)
    with pytest.raises(ValueError, match="get as server_op"):
        _chooser("server_op", sizes)
    # remote_fetch stores as a server-op, which cannot carry the slot
    with pytest.raises(ValueError, match="put as server_op"):
        _chooser("remote_fetch", sizes)
    # a big key is a big *request* in every server-side mode
    with pytest.raises(ValueError, match="get as remote_fetch"):
        _chooser("remote_fetch", {"get": (slot, 64)})
    assert _chooser("one_sided", sizes).pick("put") == ("one_sided", None)


def test_selector_rejects_bad_parameters():
    # the probe period is the selector's one parameter; the config that
    # every handle's selector reads it from refuses one that never serves
    with pytest.raises(ValueError, match="datapath_probe_every"):
        RStoreConfig(datapath_probe_every=1)
    assert _chooser("adaptive", datapath_probe_every=2).probe_every == 2


MODES = PathPolicy.MODES


def test_cold_start_samples_every_mode_once():
    sel = AdaptiveSelector(32)
    seen = []
    for _ in range(len(MODES)):
        mode = sel.choose("get", MODES)
        seen.append(mode)
        sel.observe("get", mode, 10e-6, cold=False)
    assert sorted(seen) == sorted(MODES)
    assert preferred_mode(sel, "get") is not None


def _warm(sel, op_class, latencies):
    """Sample each mode once with the given per-mode latency."""
    for _ in MODES:
        mode = sel.choose(op_class, MODES)
        sel.observe(op_class, mode, latencies[mode], cold=False)


def test_selector_settles_on_the_fastest_mode():
    sel = AdaptiveSelector(32)
    _warm(sel, "get", {"one_sided": 30e-6, "server_op": 8e-6,
                       "remote_fetch": 50e-6})
    assert preferred_mode(sel, "get") == "server_op"
    assert sel.choose("get", MODES) == "server_op"


def test_hysteresis_ignores_marginal_improvements():
    sel = AdaptiveSelector(32)
    _warm(sel, "get", {"one_sided": 10e-6, "server_op": 9.5e-6,
                       "remote_fetch": 40e-6})
    # server_op is best but only ~5% better: inside the 20% band
    assert AdaptiveSelector.HYSTERESIS == 0.2
    current = preferred_mode(sel, "get")
    for _ in range(20):
        sel.observe("get", "server_op", 9.5e-6, cold=False)
    assert preferred_mode(sel, "get") == current
    assert sel.switches == 0


def test_patience_gates_a_genuine_regime_shift():
    sel = AdaptiveSelector(32)
    _warm(sel, "get", {"one_sided": 10e-6, "server_op": 12e-6,
                       "remote_fetch": 40e-6})
    assert preferred_mode(sel, "get") == "one_sided"
    # the regime flips: server_op now 6x faster.  Each sample already
    # puts its EWMA past the 20% band, so only patience delays the switch
    assert AdaptiveSelector.PATIENCE == 3
    for i in range(3):
        sel.observe("get", "server_op", 2e-6, cold=False)
        if i < 2:
            assert preferred_mode(sel, "get") == "one_sided", f"switched at {i}"
    assert preferred_mode(sel, "get") == "server_op"
    assert sel.switches == 1


def test_interleaved_noise_resets_the_patience_streak():
    sel = AdaptiveSelector(32)
    _warm(sel, "get", {"one_sided": 10e-6, "server_op": 12e-6,
                       "remote_fetch": 40e-6})
    for _ in range(5):
        sel.observe("get", "server_op", 2e-6, cold=False)   # streak builds...
        sel.observe("get", "server_op", 16e-6, cold=False)  # ...and collapses
    assert preferred_mode(sel, "get") == "one_sided"
    assert sel.switches == 0


def test_probing_resamples_non_current_modes_round_robin():
    sel = AdaptiveSelector(4)
    _warm(sel, "get", {"one_sided": 5e-6, "server_op": 20e-6,
                       "remote_fetch": 30e-6})
    probes = []
    for _ in range(16):
        mode = sel.choose("get", MODES)
        if mode != "one_sided":
            probes.append(mode)
        sel.observe("get", mode, {"one_sided": 5e-6, "server_op": 20e-6,
                                  "remote_fetch": 30e-6}[mode], cold=False)
    # every probe_every-th op samples a non-current mode, alternating
    assert probes, "the selector never probed"
    assert set(probes) == {"server_op", "remote_fetch"}


def test_op_classes_are_independent():
    sel = AdaptiveSelector(32)
    _warm(sel, "get", {"one_sided": 5e-6, "server_op": 50e-6,
                       "remote_fetch": 60e-6})
    _warm(sel, "burst", {"one_sided": 80e-6, "server_op": 6e-6,
                         "remote_fetch": 70e-6})
    assert preferred_mode(sel, "get") == "one_sided"
    assert preferred_mode(sel, "burst") == "server_op"


def test_restricted_mode_set_never_leaves_the_subset():
    # puts and bursts only run one_sided/server_op; the chooser must
    # respect a per-call restriction even while probing
    sel = AdaptiveSelector(2)
    allowed = ("one_sided", "server_op")
    for i in range(40):
        mode = sel.choose("put", allowed)
        assert mode in allowed
        sel.observe("put", mode, 10e-6 if mode == "one_sided" else 8e-6,
                    cold=False)


def test_cold_observations_are_discarded():
    # an op that paid one-time setup (channel dial, fetch-buffer
    # alloc) must not poison the mode's EWMA — the selector drops the
    # sample and keeps the mode in cold-start until a warm sample lands
    sel = AdaptiveSelector(32)
    assert sel.choose("get", MODES) == "one_sided"
    sel.observe("get", "one_sided", 500e-6, cold=True)
    st = sel._classes["get"]
    assert "one_sided" not in st.ewma
    assert sel.choose("get", MODES) == "one_sided"  # still cold: re-sampled
    sel.observe("get", "one_sided", 10e-6, cold=False)
    assert st.ewma["one_sided"] == pytest.approx(10e-6)


def test_early_samples_average_instead_of_anchoring():
    # bias-corrected smoothing: the first samples fold in with 1/n
    # weight, so one unlucky deep-chain op cannot dominate the estimate
    sel = AdaptiveSelector(32)
    for latency in (90e-6, 10e-6, 20e-6):
        sel.observe("get", "one_sided", latency, cold=False)
    st = sel._classes["get"]
    assert st.ewma["one_sided"] == pytest.approx(40e-6)  # the true mean


def test_ewma_smoothing_follows_the_alpha():
    # from the fourth sample on ALPHA (0.3) outweighs 1/n
    sel = AdaptiveSelector(32)
    for latency in (40e-6, 40e-6, 40e-6, 50e-6):
        sel.observe("get", "one_sided", latency, cold=False)
    st = sel._classes["get"]
    assert AdaptiveSelector.ALPHA == 0.3
    assert st.ewma["one_sided"] == pytest.approx(43e-6)
