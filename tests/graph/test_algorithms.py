"""Vertex-program correctness against reference implementations.

The programs are pure numpy, so they are tested here without any
simulation: a trivial sequential driver iterates them to convergence.
"""

import numpy as np
import pytest

from repro.graph.algorithms import (
    BfsProgram,
    SsspProgram,
    WccProgram,
)
from repro.graph.loader import Graph
from tests.probes import pagerank


def drive(program, graph, max_iters=10_000):
    """Single-partition BSP driver."""
    n = graph.num_vertices
    x = program.initial(graph, 0, n)
    iteration = 0
    while True:
        new, changed = program.apply(graph, x, 0, n)
        x = new
        iteration += 1
        if program.done(iteration, changed):
            return x, iteration


def line_graph(n=5):
    """0 -> 1 -> 2 -> ... -> n-1"""
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return Graph.from_edges(n, src, dst)


def test_bfs_distances_on_line():
    dist, _iters = drive(BfsProgram(), line_graph(5))
    assert dist.tolist() == [0, 1, 2, 3, 4]


def test_bfs_unreachable_stays_infinite():
    g = Graph.from_edges(4, np.array([0]), np.array([1]))
    dist, _ = drive(BfsProgram(), g)
    assert dist[0] == 0 and dist[1] == 1
    assert np.isinf(dist[2]) and np.isinf(dist[3])


def test_sssp_weighted_shortest_path():
    # 0 ->(5) 1, 0 ->(1) 2, 2 ->(1) 1 : best path to 1 costs 2
    src = np.array([0, 0, 2])
    dst = np.array([1, 2, 1])
    w = np.array([5.0, 1.0, 1.0])
    g = Graph.from_edges(3, src, dst, w)
    dist, _ = drive(SsspProgram(), g)
    assert dist.tolist() == [0.0, 2.0, 1.0]


def test_sssp_requires_weights():
    g = line_graph(3)
    with pytest.raises(ValueError, match="weights"):
        drive(SsspProgram(), g)


def test_wcc_on_symmetrized_components():
    # components {0,1,2} and {3,4}; symmetrize edges for weak semantics
    src = np.array([0, 1, 3, 1, 2, 4])
    dst = np.array([1, 2, 4, 0, 1, 3])
    g = Graph.from_edges(5, src, dst)
    labels, _ = drive(WccProgram(), g)
    assert labels[0] == labels[1] == labels[2] == 0
    assert labels[3] == labels[4] == 3


def test_pagerank_sums_to_one():
    src = np.array([0, 1, 2, 3, 0, 2])
    dst = np.array([1, 2, 3, 0, 2, 0])
    g = Graph.from_edges(4, src, dst)
    ranks, iters = drive(pagerank(20), g)
    assert iters == 20
    assert ranks.sum() == pytest.approx(1.0, abs=1e-9)


def test_pagerank_matches_networkx():
    networkx = pytest.importorskip("networkx")
    rng = np.random.default_rng(11)
    src = rng.integers(0, 50, 400)
    dst = rng.integers(0, 50, 400)
    g = Graph.from_edges(50, src.astype(np.int64), dst.astype(np.int64))
    ranks, _ = drive(pagerank(100), g)

    nxg = networkx.MultiDiGraph()
    nxg.add_nodes_from(range(50))
    nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
    expected = networkx.pagerank(nxg, alpha=0.85, max_iter=200, tol=1e-12)
    for v in range(50):
        assert ranks[v] == pytest.approx(expected[v], abs=1e-6)


def test_pagerank_handles_dangling_mass():
    # vertex 1 has no out-edges; total rank must still be 1
    g = Graph.from_edges(3, np.array([0, 2]), np.array([1, 1]))
    ranks, _ = drive(pagerank(50), g)
    assert ranks.sum() == pytest.approx(1.0, abs=1e-9)


def test_bfs_converges_and_reports_done():
    g = line_graph(10)
    program = BfsProgram()
    _dist, iters = drive(program, g)
    assert iters <= 11  # diameter + settle round
