"""E6 — The graph framework beyond PageRank: BFS, SSSP, WCC.

The paper motivates the framework as general-purpose ("low-latency
graph access"); this table shows the same engine/substrate gap holds
for traversal- and propagation-style algorithms, which are
convergence-driven rather than iteration-bounded.
"""

import numpy as np

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.graph import (
    BfsProgram,
    MessagePassingEngine,
    RStoreGraphEngine,
    SsspProgram,
    WccProgram,
)
from repro.graph.loader import Graph
from repro.simnet.config import GiB, KiB
from repro.workloads.graphs import rmat_edges

from benchmarks.conftest import fmt_ms, print_table

SCALE = 15
MACHINES = 12


def build_graph():
    src, dst = rmat_edges(scale=SCALE, seed=11)
    # symmetrize: traversal algorithms want an undirected view
    n = 1 << SCALE
    rng = np.random.default_rng(5)
    weights = rng.uniform(1.0, 10.0, 2 * len(src))
    return Graph.from_edges(
        n,
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
        weights,
    )


def run_experiment():
    graph = build_graph()
    cluster = build_cluster(
        num_machines=MACHINES,
        config=RStoreConfig(stripe_size=512 * KiB),
        server_capacity=1 * GiB,
    )
    programs = [
        ("BFS", BfsProgram()),
        ("SSSP", SsspProgram()),
        ("WCC", WccProgram()),
    ]
    rows = []
    for i, (name, program) in enumerate(programs):
        rstore = RStoreGraphEngine(cluster, graph, tag=f"e6r{i}")
        r_stats = cluster.run_app(rstore.run(program))
        baseline = MessagePassingEngine(cluster, graph, tag=f"e6m{i}")
        m_stats = cluster.run_app(baseline.run(program))
        assert np.allclose(r_stats.values, m_stats.values,
                           equal_nan=True), f"{name}: engines disagree"
        rows.append([name, r_stats.iterations, r_stats.elapsed,
                     m_stats.elapsed])
    return rows


def test_e6_graph_algorithms(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        f"E6: traversal/propagation algorithms, RMAT scale {SCALE} "
        f"(symmetrized), {MACHINES} machines",
        ["algorithm", "supersteps", "RStore (ms)", "msg passing (ms)",
         "speedup"],
        [
            [name, iters, fmt_ms(r), fmt_ms(m), f"{m / r:.2f}x"]
            for name, iters, r, m in rows
        ],
    )
    benchmark.extra_info["rows"] = [
        {"algorithm": a, "iterations": i, "rstore_s": r, "baseline_s": m}
        for a, i, r, m in rows
    ]
    for _name, iters, r_elapsed, m_elapsed in rows:
        assert iters > 1
        assert m_elapsed > 1.3 * r_elapsed
