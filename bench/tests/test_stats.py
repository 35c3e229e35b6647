import pytest
import stats
from calib import CAL_REF as _CAL_REF

CAL_REF = _CAL_REF["interpreter"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(19) == 50.0
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(1_000_000) == 99.99


def test_percentile_is_nearest_rank():
    data = sorted(range(1, 101))
    assert stats.percentile(data, 50) == 50
    assert stats.percentile(data, 99) == 99
    assert stats.percentile(data, 100) == 100
    assert stats.percentile(data, 0) == 1
    assert stats.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_calibration_cancels_machine_speed():
    # the same work on a machine running 20 % slow: raw rate and
    # calibration rate both drop by 20 %, the calibrated rate does not
    fast = stats.calibrated_rate(1000.0, CAL_REF, CAL_REF)
    slow = stats.calibrated_rate(800.0, 0.8 * CAL_REF, 0.8 * CAL_REF)
    assert fast == pytest.approx(1000.0)
    assert slow == pytest.approx(fast)
    # durations scale the other way
    assert stats.calibrated_seconds(1.25, 0.8 * CAL_REF, 0.8 * CAL_REF) \
        == pytest.approx(1.0)
    # the two bracketing slices are averaged
    assert stats.calibrated_rate(1000.0, 0.5 * CAL_REF, 1.5 * CAL_REF) \
        == pytest.approx(1000.0)
    # each kernel has its own unit
    copy_ref = _CAL_REF["copy"]
    assert stats.calibrated_rate(50.0, copy_ref / 2, copy_ref / 2, "copy") \
        == pytest.approx(100.0)


def test_undisturbed_mean_ignores_slow_rounds_and_the_top_tenth():
    quiet = [100.0] * 20
    assert stats.undisturbed_mean(quiet) == 100.0
    # half the rounds slowed down, two calibrated too high
    assert stats.undisturbed_mean([70.0] * 10 + [100.0] * 8 + [130.0] * 2) \
        == 100.0
    # between the median and the 90th percentile it is a plain mean
    assert stats.undisturbed_mean(list(range(10))) == (5 + 6 + 7 + 8) / 4
    assert stats.undisturbed_mean([7.0]) == 7.0
    with pytest.raises(ValueError):
        stats.undisturbed_mean([])


def test_relative_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.relative_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.relative_spread([5.0]) == 0.0
    assert stats.relative_spread([3.0, 3.0, 3.0]) == 0.0


SRC = "/checkout/src/repro"
BENCH = "/checkout/bench"


def _row(calls, self_s):
    return (calls, calls, self_s, self_s * 2, {})


def test_profile_folds_by_package_path():
    profile = {
        (f"{SRC}/simnet/kernel.py", 357, "step"): _row(100, 1.0),
        (f"{SRC}/simnet/kernel.py", 330, "process"): _row(7, 0.25),
        (f"{SRC}/rdma/memory.py", 56, "write"): _row(10, 0.5),
        (f"{SRC}/rdma/nic.py", 10, "submit"): _row(10, 0.25),
        (f"{SRC}/cluster/builder.py", 90, "run_app"): _row(1, 0.125),
        (f"{SRC}/__main__.py", 1, "<module>"): _row(1, 0.125),
        (f"{BENCH}/workloads.py", 200, "client_round"): _row(3, 0.5),
        ("/usr/lib/python3.11/heapq.py", 1, "heappush"): _row(50, 0.25),
        ("~", 0, "<built-in method builtins.len>"): _row(40, 0.25),
    }
    folded = stats.fold_profile(profile, SRC, BENCH)
    assert set(folded) == set(stats.LAYERS + stats.EXTRA_LAYERS)
    assert folded["simnet"] == {"calls": 107, "self_s": 1.25}
    assert folded["rdma"] == {"calls": 20, "self_s": 0.75}
    assert folded["other"] == {"calls": 2, "self_s": 0.25}
    assert folded["bench"] == {"calls": 3, "self_s": 0.5}
    assert folded["stdlib"] == {"calls": 90, "self_s": 0.5}
    # a layer that did nothing still reads 0, it is not missing
    assert folded["txn"] == {"calls": 0, "self_s": 0.0}
    assert sum(layer["self_s"] for layer in folded.values()) == 3.25
    assert stats.calls_of(profile, "simnet/kernel.py", "step") == 100
    assert stats.calls_of(profile, "simnet/kernel.py", "process") == 7
    assert stats.self_seconds(profile, "rdma/memory.py") == 0.5


def test_interquartile_mean_ignores_both_tails():
    data = sorted([1.0] * 25 + [2.0] * 40 + [3.0] * 10 + [1000.0] * 25)
    assert stats.interquartile_mean(data) == pytest.approx(
        (40 * 2.0 + 10 * 3.0) / 50)
    # unlike the median it moves when the mix inside the middle shifts
    shifted = sorted([1.0] * 25 + [2.0] * 30 + [3.0] * 20 + [1000.0] * 25)
    assert stats.percentile(data, 50) == stats.percentile(shifted, 50) == 2.0
    assert stats.interquartile_mean(shifted) > stats.interquartile_mean(data)
    assert stats.interquartile_mean([4.0]) == 4.0
    assert stats.interquartile_mean([1.0, 2.0, 3.0]) == 2.0


def test_tail_mean_is_the_mean_beyond_p99():
    data = sorted(float(i) for i in range(1, 1001))
    assert stats.tail_mean(data) == pytest.approx(995.5)
    assert stats.tail_mean(data, share=0.1) == pytest.approx(950.5)
    assert stats.tail_mean([3.0, 9.0]) == 9.0
    with pytest.raises(ValueError):
        stats.tail_mean([])
