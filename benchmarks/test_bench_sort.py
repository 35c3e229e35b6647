"""E7 — Sorting 256 GB: RSort vs Hadoop TeraSort.

Anchors the abstract's "sort 256 GB of data in 31.7 sec, which is 8x
better than Hadoop TeraSort in a similar setting".  The run uses the
repository's wire-scaling convention: a tractable number of real
records stands for the full 2.56 billion, with every wire/disk/CPU
cost charged at the logical size — the identical code path is
validated on real bytes in tests/sort.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import GiB, MiB
from repro.sort import RSort, TeraSortBaseline
from repro.workloads.kv import RECORD_BYTES, is_sorted

from benchmarks.conftest import claim, print_table

MACHINES = 12
RECORDS_PER_WORKER = 10_000
TARGET_BYTES = 256 * GiB


def run_experiment():
    real_bytes = MACHINES * RECORDS_PER_WORKER * RECORD_BYTES
    scale = TARGET_BYTES // real_bytes
    cluster = build_cluster(
        num_machines=MACHINES,
        config=RStoreConfig(stripe_size=1 * MiB),
        server_capacity=64 * GiB,
    )
    rsort = RSort(cluster, RECORDS_PER_WORKER, scale=scale, seed=2,
                  tag="e7r")
    r_stats = cluster.run_app(rsort.run())
    output = cluster.run_app(rsort.collect_output())
    assert is_sorted(output)
    assert len(output) == rsort.total_records

    tera = TeraSortBaseline(cluster, RECORDS_PER_WORKER, scale=scale,
                            seed=2, tag="e7t")
    t_stats = cluster.run_app(tera.run())
    assert is_sorted(tera.collect_output())
    return {
        "logical_gb": rsort.logical_bytes / 1e9,
        "rsort_s": r_stats.elapsed,
        "tera_s": t_stats.elapsed,
        "rsort_Bps": r_stats.throughput_Bps,
        "tera_Bps": t_stats.throughput_Bps,
    }


def test_e7_sort_256gb(benchmark):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    ratio = r["tera_s"] / r["rsort_s"]
    print_table(
        benchmark,
        f"E7: sorting {r['logical_gb']:.0f} GB on {MACHINES} machines "
        "(paper: RSort 31.7 s, 8x vs Hadoop TeraSort)",
        ["system", "time (s)", "throughput (GB/s)"],
        [
            ["RSort", f"{r['rsort_s']:.1f}", f"{r['rsort_Bps'] / 1e9:.2f}"],
            ["TeraSort-like", f"{r['tera_s']:.1f}",
             f"{r['tera_Bps'] / 1e9:.2f}"],
            ["ratio", f"{ratio:.1f}x", ""],
        ],
    )
    benchmark.extra_info.update(r | {"ratio": ratio})
    # RSort lands in the paper's neighbourhood of 31.7 s (our sort CPU
    # model runs somewhat hot; see EXPERIMENTS.md)...
    claim(benchmark, "sort 256 GB on 12 machines: RSort time", paper=31.7,
          measured=r["rsort_s"], band=(15, 45), unit=" s")
    # ...and the margin over the disk pipeline brackets the paper's 8x
    claim(benchmark, "sort 256 GB: RSort speed-up over Hadoop TeraSort",
          paper=8, measured=ratio, band=(6, 16), unit="×")
