"""E11 (extension) — sensitivity to fabric oversubscription.

The paper's 705 Gb/s assumes a single full-bisection switch.  This
ablation re-runs the E3 all-to-all read workload on a 3-rack topology
with progressively oversubscribed uplinks, quantifying how much of
RStore's aggregate-bandwidth story depends on that fabric assumption —
the kind of deployment question a downstream adopter asks first.
"""

from repro.simnet.config import MiB, NetworkConfig

from benchmarks.conftest import fmt_gbps, print_table
from benchmarks.test_bench_bandwidth import run_one as all_to_all_read

MACHINES = 12
RACKS = 3
PER_CLIENT_REAL = 8 * MiB
SWEEP = [1.0, 2.0, 4.0]


def run_experiment():
    return [
        (o, all_to_all_read(MACHINES, PER_CLIENT_REAL, NetworkConfig(
            racks=RACKS, oversubscription=o)))
        for o in SWEEP
    ]


def test_e11_oversubscription(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        f"E11 (extension): all-to-all read bandwidth, {MACHINES} machines "
        f"in {RACKS} racks",
        ["uplink oversubscription", "aggregate (Gb/s)", "vs full bisection"],
        [
            [f"{o:.0f}:1", fmt_gbps(bw), f"{bw / rows[0][1]:.2f}x"]
            for o, bw in rows
        ],
    )
    benchmark.extra_info["rows"] = [
        {"oversubscription": o, "aggregate_gbps": bw / 1e9} for o, bw in rows
    ]
    full, half, quarter = (bw for _o, bw in rows)
    # full bisection across racks matches the single-switch story
    assert full / 1e9 > 450
    # cross-rack traffic dominates all-to-all: throughput degrades with
    # the uplink, approaching 1/oversubscription
    assert half < 0.75 * full
    assert quarter < 0.75 * half