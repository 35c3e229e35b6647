"""Distributed engine tests: RStore BSP vs the message-passing baseline.

Both engines run the same vertex programs; results must match the
sequential driver bit-for-bit (same numpy operations in the same
order), and the RStore engine must beat the sockets baseline — the
paper's Table-level claim, pinned here at small scale.
"""

import numpy as np
import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.graph import (
    BfsProgram,
    MessagePassingEngine,
    RStoreGraphEngine,
    WccProgram,
)
from repro.graph.loader import Graph
from repro.simnet.config import KiB, MiB
from repro.workloads.graphs import rmat_edges
from tests.probes import pagerank


@pytest.fixture(scope="module")
def cluster():
    return build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=256 * KiB),
        server_capacity=256 * MiB,
    )


@pytest.fixture(scope="module")
def graph():
    src, dst = rmat_edges(scale=9, seed=9)
    return Graph.from_edges(1 << 9, src, dst)


def sequential(program, graph):
    n = graph.num_vertices
    x = program.initial(graph, 0, n)
    iteration = 0
    while True:
        x, changed = program.apply(graph, x, 0, n)
        iteration += 1
        if program.done(iteration, changed):
            return x


def test_rstore_engine_matches_sequential_pagerank(cluster, graph):
    engine = RStoreGraphEngine(cluster, graph, tag="pr1")
    stats = cluster.run_app(engine.run(pagerank(5)))
    expected = sequential(pagerank(5), graph)
    np.testing.assert_allclose(stats.values, expected, rtol=1e-12)
    assert stats.iterations == 5
    assert stats.elapsed > 0


def test_rstore_engine_matches_sequential_bfs(cluster, graph):
    engine = RStoreGraphEngine(cluster, graph, tag="bfs1")
    stats = cluster.run_app(engine.run(BfsProgram()))
    expected = sequential(BfsProgram(), graph)
    finite = np.isfinite(expected)
    assert (np.isfinite(stats.values) == finite).all()
    np.testing.assert_array_equal(stats.values[finite], expected[finite])


def test_baseline_engine_matches_sequential_pagerank(cluster, graph):
    engine = MessagePassingEngine(cluster, graph, tag="mp-pr")
    stats = cluster.run_app(engine.run(pagerank(5)))
    expected = sequential(pagerank(5), graph)
    np.testing.assert_allclose(stats.values, expected, rtol=1e-12)


def test_engines_agree_with_each_other_wcc(cluster):
    # symmetrized small graph
    src, dst = rmat_edges(scale=7, seed=4)
    g = Graph.from_edges(
        1 << 7,
        np.concatenate([src, dst]),
        np.concatenate([dst, src]),
    )
    r_engine = RStoreGraphEngine(cluster, g, tag="wcc-r")
    m_engine = MessagePassingEngine(cluster, g, tag="wcc-m")
    r_stats = cluster.run_app(r_engine.run(WccProgram()))
    m_stats = cluster.run_app(m_engine.run(WccProgram()))
    np.testing.assert_array_equal(r_stats.values, m_stats.values)


def test_rstore_engine_outperforms_baseline(cluster, graph):
    """The paper's headline graph claim, at reduced scale: RStore-backed
    processing beats message passing (full 2.6-4.2x margins are checked
    at benchmark scale in E5)."""
    r_engine = RStoreGraphEngine(cluster, graph, tag="perf-r")
    m_engine = MessagePassingEngine(cluster, graph, tag="perf-m")
    program = pagerank(8)
    r_stats = cluster.run_app(r_engine.run(program))
    m_stats = cluster.run_app(m_engine.run(program))
    assert r_stats.elapsed < m_stats.elapsed


def test_rstore_engine_steady_state_is_rpc_free(cluster, graph):
    """After setup, supersteps coordinate purely on one-sided atomics
    (SenseBarrier + cumulative AtomicCounter): the master serves zero
    RPCs during the whole iteration phase."""
    engine = RStoreGraphEngine(cluster, graph, tag="rpc0")
    stats = cluster.run_app(engine.run(pagerank(4)))
    assert stats.iterations == 4
    assert stats.steady_state_master_calls == 0


def test_engine_subset_of_hosts(cluster, graph):
    engine = RStoreGraphEngine(cluster, graph, worker_hosts=[1, 2], tag="sub")
    stats = cluster.run_app(engine.run(pagerank(3)))
    expected = sequential(pagerank(3), graph)
    np.testing.assert_allclose(stats.values, expected, rtol=1e-12)


def test_load_time_recorded(cluster, graph):
    engine = RStoreGraphEngine(cluster, graph, tag="load")
    cluster.run_app(engine.load())
    assert engine.load_elapsed > 0
