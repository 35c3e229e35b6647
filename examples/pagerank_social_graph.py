#!/usr/bin/env python
"""PageRank over a social-network-shaped graph, two ways.

Reproduces the paper's graph-processing scenario at laptop scale: an
RMAT power-law graph is loaded into RStore, the RStore-backed BSP
engine computes PageRank with one-sided gathers, and the same vertex
program is re-run on the message-passing baseline for comparison.

Run:  python examples/pagerank_social_graph.py
"""

import numpy as np

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.graph import (
    MessagePassingEngine,
    PageRankProgram,
    RStoreGraphEngine,
)
from repro.graph.loader import Graph
from repro.simnet.config import KiB, MiB
from repro.workloads.graphs import EDGE_FACTOR, rmat_edges

SCALE = 15  # 32k vertices
MACHINES = 8


def main():
    print(f"generating RMAT graph: 2^{SCALE} vertices, "
          f"{EDGE_FACTOR << SCALE} edges")
    src, dst = rmat_edges(scale=SCALE, seed=7)
    graph = Graph.from_edges(1 << SCALE, src, dst)

    cluster = build_cluster(
        num_machines=MACHINES,
        config=RStoreConfig(stripe_size=512 * KiB),
        server_capacity=512 * MiB,
    )
    program = PageRankProgram()

    rstore = RStoreGraphEngine(cluster, graph, tag="pr")
    r_stats = cluster.run_app(rstore.run(program))
    print(f"\nRStore engine : {r_stats.elapsed * 1e3:8.2f} ms "
          f"({program.iterations} iterations, "
          f"{r_stats.elapsed / program.iterations * 1e3:.2f} ms/iter; "
          f"setup {r_stats.setup_elapsed * 1e3:.2f} ms, "
          f"load {rstore.load_elapsed * 1e3:.2f} ms)")

    baseline = MessagePassingEngine(cluster, graph, tag="mp")
    m_stats = cluster.run_app(baseline.run(program))
    print(f"baseline      : {m_stats.elapsed * 1e3:8.2f} ms "
          f"({m_stats.elapsed / program.iterations * 1e3:.2f} ms/iter)")
    print(f"speedup       : {m_stats.elapsed / r_stats.elapsed:8.2f}x "
          f"(paper reports 2.6-4.2x at testbed scale)")

    assert np.allclose(r_stats.values, m_stats.values), "engines disagree!"
    top = np.argsort(r_stats.values)[::-1][:5]
    print("\ntop-5 vertices by rank:")
    for v in top:
        print(f"  vertex {v:6d}  rank {r_stats.values[v]:.6f}  "
              f"in-degree {graph.indptr[v + 1] - graph.indptr[v]}")


if __name__ == "__main__":
    main()
