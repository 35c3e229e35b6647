"""Pure helpers: percentiles, calibration scaling, profile folding.

Nothing here touches the simulator or the clock, so ``bench/tests``
can pin every rule the driver relies on.
"""

from __future__ import annotations

import math
import statistics

from calib import CAL_REF

#: the layers of the per-layer table: packages under ``src/repro``
LAYERS = ("simnet", "rdma", "rpc", "core", "coord", "kv", "datapath",
          "txn", "sanitize", "obs")
#: where everything else lands: the driver's own files, the remaining
#: ``src/repro`` packages (cluster builder, net, metrics…), and code
#: outside the repo (the interpreter's builtins included)
EXTRA_LAYERS = ("bench", "other", "stdlib")

#: reportable tails: (percentile, one sample in this many lies beyond it)
_TAILS = ((50.0, 2), (90.0, 10), (99.0, 100), (99.9, 1000), (99.99, 10000))


def percentile(sorted_samples: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list (q in 0..100)."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_samples) * q / 100.0))
    return sorted_samples[rank - 1]


def tail_percentile(count: int) -> float:
    """The highest reportable percentile: at least ten samples beyond it."""
    best = _TAILS[0][0]
    for q, one_in in _TAILS:
        if count >= 10 * one_in:
            best = q
    return best


def interquartile_mean(sorted_samples: list) -> float:
    """Mean of the middle half of an ascending list.

    Simulated latencies are a handful of exact values (one per path
    through the model), so the sample median is always the same one of
    them and says nothing when the mix shifts; the interquartile mean
    is as deaf to the tails as the median and still moves with the mix.
    """
    if not sorted_samples:
        raise ValueError("no samples")
    count = len(sorted_samples)
    middle = sorted_samples[count // 4:count - count // 4]
    return math.fsum(middle) / len(middle)


def tail_mean(sorted_samples: list, share: float = 0.01) -> float:
    """Mean of the slowest *share* of an ascending list (at least one).

    The p99 of a few exact values jumps from one of them to the next
    when the 99 % mark crosses a boundary; the mean of everything
    beyond it moves by what actually changed.
    """
    if not sorted_samples:
        raise ValueError("no samples")
    beyond = max(1, int(len(sorted_samples) * share))
    return math.fsum(sorted_samples[-beyond:]) / beyond


def undisturbed_mean(rates: list) -> float:
    """Mean of the rates between the median and the 90th percentile.

    What disturbs a round on a shared box slows it down, and a slow
    spell of a few seconds can take more than half the rounds of a
    run, so the lower half is left out; the top tenth is left out too
    — it holds the rounds whose calibration slices were disturbed
    when the round was not.  (Measured against the median in the
    README.)
    """
    if not rates:
        raise ValueError("no rates")
    ordered = sorted(rates)
    low = len(ordered) // 2
    high = max(low + 1, len(ordered) * 9 // 10)
    return math.fsum(ordered[low:high]) / (high - low)


def calibrated_rate(raw_rate: float, cal_before: float, cal_after: float,
                    kind: str = "interpreter") -> float:
    """A host rate rescaled to the reference machine speed."""
    return raw_rate * CAL_REF[kind] / ((cal_before + cal_after) / 2.0)


def calibrated_seconds(raw_seconds: float, cal_before: float,
                       cal_after: float) -> float:
    """A host duration rescaled to the reference machine speed (set-up
    is interpreter-bound on every workload)."""
    return (raw_seconds * ((cal_before + cal_after) / 2.0)
            / CAL_REF["interpreter"])


def relative_spread(values: list) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return abs(q3 - q1) / abs(mid) if mid else math.inf


def layer_of(filename: str, src_root: str, bench_root: str) -> str:
    """Which layer a profiled function's file belongs to."""
    if filename.startswith(src_root):
        package = filename[len(src_root):].lstrip("/").split("/", 1)[0]
        return package if package in LAYERS else "other"
    if filename.startswith(bench_root):
        return "bench"
    return "stdlib"


def fold_profile(stats: dict, src_root: str, bench_root: str) -> dict:
    """Fold ``pstats``-shaped rows by layer.

    *stats* maps ``(filename, line, name)`` to ``(primitive_calls,
    calls, tottime, cumtime, callers)`` — ``pstats.Stats.stats``.
    Returns ``{layer: {"calls": int, "self_s": float}}`` for every
    layer, present or not, so a layer that did nothing reads 0.
    """
    folded = {layer: {"calls": 0, "self_s": 0.0}
              for layer in LAYERS + EXTRA_LAYERS}
    for (filename, _line, _name), row in stats.items():
        layer = folded[layer_of(filename, src_root, bench_root)]
        layer["calls"] += row[1]
        layer["self_s"] += row[2]
    return folded


def self_seconds(stats: dict, path_suffix: str) -> float:
    """Total self time of the functions of one file."""
    return sum(row[2] for (filename, _l, _n), row in stats.items()
               if filename.endswith(path_suffix))


def calls_of(stats: dict, path_suffix: str, name: str) -> int:
    """Exact call count of one function, by file suffix and name."""
    return sum(row[1] for (filename, _l, func), row in stats.items()
               if func == name and filename.endswith(path_suffix))
