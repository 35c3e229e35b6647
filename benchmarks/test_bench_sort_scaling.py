"""E8 — RSort weak scaling.

Fixed per-node data (21.3 GB, the 256 GB/12 point of E7) while the
cluster grows: in-memory sorting with a one-sided shuffle should keep
per-node time nearly flat, because every added machine brings its own
NIC, DRAM and cores — the aggregate-bandwidth property of E3 applied
end-to-end.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import GiB, MiB
from repro.sort import RSort
from repro.workloads.kv import RECORD_BYTES, is_sorted

from benchmarks.conftest import print_table

MACHINES = [2, 4, 8, 12]
RECORDS_PER_WORKER = 10_000
PER_NODE_BYTES = 256 * GiB // 12  # E7's per-node share


def run_one(machines: int):
    scale = PER_NODE_BYTES // (RECORDS_PER_WORKER * RECORD_BYTES)
    cluster = build_cluster(
        num_machines=machines,
        config=RStoreConfig(stripe_size=1 * MiB),
        server_capacity=64 * GiB,
    )
    sorter = RSort(cluster, RECORDS_PER_WORKER, scale=scale, seed=8,
                   tag="e8")
    stats = cluster.run_app(sorter.run())
    output = cluster.run_app(sorter.collect_output())
    assert is_sorted(output)
    return stats.elapsed, stats.logical_bytes


def run_experiment():
    return [(m, *run_one(m)) for m in MACHINES]


def test_e8_sort_weak_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        "E8: RSort weak scaling (21.3 GB per node)",
        ["machines", "data (GB)", "time (s)", "GB/s aggregate"],
        [
            [m, f"{nbytes / 1e9:.0f}", f"{t:.1f}", f"{nbytes / t / 1e9:.2f}"]
            for m, t, nbytes in rows
        ],
    )
    benchmark.extra_info["rows"] = [
        {"machines": m, "elapsed_s": t, "bytes": b} for m, t, b in rows
    ]
    times = [t for _m, t, _b in rows]
    # weak scaling: per-node time stays within ~35% across 2 -> 12
    assert max(times) < 1.35 * min(times)
    # aggregate throughput grows nearly linearly with machines
    agg = [b / t for _m, t, b in rows]
    assert agg[-1] > 4 * agg[0]
