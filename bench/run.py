"""The benchmark driver.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in fresh child processes (one at a time: one busy
thread), checks its outputs, prints every metric by name with its
unit, and ends with one JSON line.  ``--trace 0`` gives the end-to-end
metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer ones.
Without ``--workload`` every workload runs in turn; ``--out F`` keeps
the full results (rounds, counters, profile) for ``compare.py``.

The measured phase is a fixed op count — the workload's reference
rate times ``--seconds``, so it takes about that long on the reference
box — split into ``inputs.ROUNDS`` rounds, which keeps every ``sim_*``
value an exact function of ``(seed, seconds)``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import inputs
import report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: ``setup_s`` is the median over the measuring child and this many
#: set-up-only ones
EXTRA_SETUPS = 2
CHILD_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child(workload: str, seed: int, ops_per_round: int, rounds: int,
          traced: bool = False) -> dict:
    """Run ``child.py`` to completion and return its result object."""
    spec = {"workload": workload, "seed": seed, "rounds": rounds,
            "ops_per_round": ops_per_round, "traced": traced}
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if done.returncode not in (0, 1) or not done.stdout.strip():
        raise SystemExit(
            f"{workload}: child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_end_to_end(name: str, seed: int, seconds: float) -> dict:
    per_round = inputs.ops_per_round(name, seconds)
    full = child(name, seed, per_round, inputs.ROUNDS)
    setups = [child(name, seed, per_round, 0) for _ in range(EXTRA_SETUPS)]
    problems = list(full["problems"])
    if any(s["setup"]["sim_ms"] != full["setup"]["sim_ms"] for s in setups):
        problems.append("two set-ups of one seed took different "
                        "simulated time: the simulation is not deterministic")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 0,
        "metrics": report.end_to_end(full, setups),
        "round_rates": report.round_rates(full),
        "setup_samples": [report.setup_seconds(r) for r in [full, *setups]],
        "attempted": sum(r["ops"] for r in full["rounds"]),
        "failed": sum(r["failed"] for r in full["rounds"]),
        "latency": full["latency"],
        "sim_digest": full["sim_digest"],
        "sim_digest_r1": full["sim_digest_r1"],
        "problems": problems,
        "child": full,
    }


def run_traced(name: str, seed: int, seconds: float) -> dict:
    per_round = inputs.ops_per_round(name, seconds)
    plain = child(name, seed, per_round, 1)
    traced = child(name, seed, per_round, 1, traced=True)
    twin = None
    if name in inputs.TWIN:
        twin = child(inputs.TWIN[name], seed, per_round, 1)
    problems = plain["problems"] + traced["problems"]
    if plain["sim_digest"] != traced["sim_digest"]:
        problems.append("tracing changed the simulation: round-1 "
                        "sim_digest differs between the traced and the "
                        "untraced run")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": 1,
        "metrics": report.per_layer(plain, traced, twin),
        "attempted": traced["rounds"][0]["ops"],
        "failed": traced["rounds"][0]["failed"],
        "latency": traced["latency"],
        "sim_digest": traced["sim_digest"],
        "sim_digest_r1": traced["sim_digest_r1"],
        "problems": problems,
        "child": traced,
    }


def describe(result: dict, units: dict) -> None:
    """Every metric by name with its unit, then counts and digests."""
    print(f"== {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:>18.6f} {units[name]}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  ops_attempted {attempted}  ops_failed {failed}  "
          f"ops_measured {attempted - failed}  "
          f"failed_ops_share {failed / attempted:.6f}")
    latency = result["latency"]
    print(f"  latency_samples {latency['samples']}  "
          f"sim_lat_p50_us {latency['p50_us']:.6f}  "
          f"sim_lat_p99_us {latency['p99_us']:.6f}  "
          f"highest_percentile_supported p{latency['tail_supported']:g}")
    print(f"  sim_digest {result['sim_digest']}")
    print(f"  sim_digest_r1 {result['sim_digest_r1']}")
    for problem in result["problems"]:
        print(f"  WRONG: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = load_spec()
    if not SRC.is_dir():
        print(f"no simulator to measure: {SRC} is missing", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}")
        names = [args.workload]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    runner = run_traced if args.trace else run_end_to_end

    results = []
    for name in names:
        result = runner(name, args.seed, seconds)
        if set(result["metrics"]) != set(units):
            raise SystemExit("metrics computed and BENCHMARK.json disagree: "
                             f"{set(result['metrics']) ^ set(units)}")
        describe(result, units)
        results.append(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(
            {"seed": args.seed, "seconds": seconds, "trace": args.trace,
             "results": results}, indent=1) + "\n")

    single = len(results) == 1
    metrics = {
        (name if single else f"{r['workload']}.{name}"):
            {"value": value, "unit": units[name]}
        for r in results for name, value in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and not any(r["problems"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
