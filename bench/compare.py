"""Compare two result files under the bounds of ``BENCHMARK.json``.

    python3 bench/compare.py [--model-changed] A.json B.json

A and B are ``run.py --out`` files (A is the base).  One row per
(workload, end-to-end metric): ``better``, ``same``, ``worse``, or
``unresolved`` when the spread inside either run (across its rounds or
its set-ups) is wider than the bound, so the two medians cannot be
told apart.  Every ratio is printed with its base.  Files of different
seeds or op counts are refused, so every ``sim_*`` value compared here
is exact: its bound is zero, and a ``sim_digest`` that differs is a
failure like a ``worse`` row — a PR that only speeds up or shrinks the
simulator must leave the model alone.  ``--model-changed`` is for the
PR that means to change it: ``sim_*`` is then held to the bounds of
``BENCHMARK.json`` and the digest may differ.  Any failure exits
non-zero.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent

#: not a ``BENCHMARK.json`` metric (it is 0 on every healthy run, and a
#: relative bound on 0 means nothing): any rise at all is a regression
FAILED_SHARE = {"name": "failed_ops_share", "unit": "ratio",
                "better": "lower", "bound": 0.0}


def verdict(base: float, new: float, better: str, bound: float,
            spread: float = 0.0) -> str:
    """Classify *new* against *base* for one metric."""
    if spread > bound:
        return "unresolved"
    gain = (new - base) if better == "higher" else (base - new)
    limit = bound * abs(base)
    if gain < -limit or (bound == 0.0 and gain < 0):
        return "worse"
    if gain > limit:
        return "better"
    return "same"


def _spread(result: dict, metric: str) -> float:
    """How far apart the repeats inside one run are, as a share."""
    if metric == "host_ops_per_s":
        return stats.relative_spread(result["round_rates"])
    if metric == "setup_s":
        return stats.relative_spread(result["setup_samples"])
    return 0.0


def _value(result: dict, metric: str) -> float:
    if metric == "failed_ops_share":
        return result["failed"] / result["attempted"]
    return result["metrics"][metric]


def compare(base: dict, new: dict, metrics: list,
            model_changed: bool = False) -> list:
    """Rows ``(workload, metric, base, new, ratio, unit, verdict)``."""
    for key in ("seed", "seconds", "trace"):
        if base[key] != new[key]:
            raise ValueError(
                f"refusing to compare: {key} differs "
                f"({base[key]} vs {new[key]})")
    theirs = {r["workload"]: r for r in new["results"]}
    rows = []
    for ours in base["results"]:
        other = theirs.get(ours["workload"])
        if other is None:
            continue
        if ours["attempted"] != other["attempted"]:
            raise ValueError(
                f"refusing to compare {ours['workload']}: op counts differ "
                f"({ours['attempted']} vs {other['attempted']})")
        for metric in [*metrics, FAILED_SHARE]:
            name = metric["name"]
            a, b = _value(ours, name), _value(other, name)
            exact = name.startswith("sim_") and not model_changed
            rows.append((
                ours["workload"], name, a, b,
                b / a if a else (1.0 if a == b else float("inf")),
                metric["unit"],
                verdict(a, b, metric["better"],
                        0.0 if exact else metric["bound"],
                        max(_spread(ours, name), _spread(other, name))),
            ))
        same = ours["sim_digest"] == other["sim_digest"]
        rows.append((ours["workload"], "sim_digest", 0.0, 0.0, 1.0, "",
                     "identical" if same else "differs"))
    return rows


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    model_changed = "--model-changed" in argv
    if model_changed:
        argv.remove("--model-changed")
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    try:
        rows = compare(base, new, spec["end_to_end"], model_changed)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{'workload':<20} {'metric':<18} {'base':>16} {'new':>16} "
          f"{'new/base':>9}  verdict")
    for workload, name, a, b, ratio, unit, outcome in rows:
        if name == "sim_digest":
            print(f"{workload:<20} {name:<18} {'':>16} {'':>16} {'':>9}  "
                  f"{outcome}")
            continue
        print(f"{workload:<20} {name:<18} {a:>16.6g} {b:>16.6g} "
              f"{ratio:>9.4f}  {outcome}  [{unit}]")
    count = {outcome: sum(1 for row in rows if row[-1] == outcome)
             for outcome in ("worse", "unresolved", "differs")}
    print(f"{count['worse']} worse, {count['unresolved']} unresolved, "
          f"{count['differs']} digests differ")
    failed = count["worse"] or (count["differs"] and not model_changed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
