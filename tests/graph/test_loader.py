"""Graph representation, generators and partitioning tests."""

import numpy as np
import pytest

from repro.graph.loader import Graph
from repro.workloads.graphs import EDGE_FACTOR, rmat_edges


def small_graph():
    # edges (src -> dst): 0->1, 0->2, 1->2, 2->0, 3->2
    src = np.array([0, 0, 1, 2, 3])
    dst = np.array([1, 2, 2, 0, 2])
    return Graph.from_edges(4, src, dst)


def in_edges_of(graph, vertex):
    """The sources of *vertex*'s in-edges: its one-row CSR slice."""
    _indptr, sources, _w = graph.slice_csr(vertex, vertex + 1)
    return sources.tolist()


def test_in_edges_grouped_by_target():
    g = small_graph()
    assert sorted(in_edges_of(g, 2)) == [0, 1, 3]
    assert in_edges_of(g, 0) == [2]
    assert in_edges_of(g, 3) == []


def test_out_degrees():
    g = small_graph()
    assert g.out_degrees.tolist() == [2, 1, 1, 1]


def test_num_edges_preserved():
    g = small_graph()
    assert g.num_edges == 5


def test_weights_follow_edge_order():
    src = np.array([0, 1, 2])
    dst = np.array([2, 2, 1])
    weights = np.array([10.0, 20.0, 30.0])
    g = Graph.from_edges(3, src, dst, weights)
    indptr, sources, w = g.slice_csr(0, 3)
    # in-edges of 1: from 2 (weight 30); of 2: from 0 and 1 (10, 20)
    for target in (1, 2):
        lo, hi = indptr[target], indptr[target + 1]
        for s, wt in zip(sources[lo:hi], w[lo:hi]):
            expected = {(2, 30.0), (0, 10.0), (1, 20.0)}
            assert (s, wt) in expected


def test_slice_csr_is_consistent():
    g = small_graph()
    indptr, sources, _w = g.slice_csr(1, 3)
    assert len(indptr) == 3
    assert indptr[0] == 0
    assert len(sources) == indptr[-1]
    # slice rows match global rows
    assert sorted(sources[indptr[1]:indptr[2]].tolist()) == sorted(
        in_edges_of(g, 2)
    )


def test_edge_bounds_validated():
    with pytest.raises(ValueError):
        Graph.from_edges(2, np.array([0]), np.array([5]))


def test_rmat_shape_and_determinism():
    s1, d1 = rmat_edges(scale=8, seed=1)
    s2, d2 = rmat_edges(scale=8, seed=1)
    assert len(s1) == EDGE_FACTOR * 256
    assert (s1 == s2).all() and (d1 == d2).all()
    assert s1.max() < 256 and d1.max() < 256


def test_rmat_is_skewed():
    """Power-law check: the top-1% targets receive far more than 1% of edges."""
    src, dst = rmat_edges(scale=11, seed=3)
    counts = np.bincount(dst, minlength=1 << 11)
    counts.sort()
    top = counts[-(len(counts) // 100):].sum()
    assert top > 0.1 * len(dst)


def test_generator_validation():
    with pytest.raises(ValueError):
        rmat_edges(scale=0)
