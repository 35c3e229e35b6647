"""Property tests driving the full applications at random shapes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB
from tests.probes import bfs_from, pagerank


@settings(max_examples=8, deadline=None)
@given(
    records=st.integers(min_value=200, max_value=2500),
    workers=st.integers(min_value=2, max_value=5),
    seed=st.integers(min_value=0, max_value=1 << 16),
    scale=st.sampled_from([1, 1, 17]),
)
def test_rsort_any_shape_sorts_correctly(records, workers, seed, scale):
    from repro.sort import RSort
    from repro.workloads.kv import is_sorted

    cluster = build_cluster(
        num_machines=workers,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )
    sorter = RSort(cluster, records_per_worker=records, seed=seed,
                   scale=scale, tag="prop")
    stats = cluster.run_app(sorter.run())
    output = cluster.run_app(sorter.collect_output())
    assert is_sorted(output)
    assert len(output) == records * workers
    assert stats.elapsed > 0


@settings(max_examples=8, deadline=None)
@given(
    scale=st.integers(min_value=6, max_value=10),
    workers=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_distributed_pagerank_matches_sequential(scale, workers, seed):
    from repro.graph import RStoreGraphEngine
    from repro.graph.loader import Graph
    from repro.workloads.graphs import rmat_edges

    src, dst = rmat_edges(scale=scale, seed=seed)
    graph = Graph.from_edges(1 << scale, src, dst)
    cluster = build_cluster(
        num_machines=workers,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=128 * MiB,
    )
    program = pagerank(4)
    engine = RStoreGraphEngine(cluster, graph, tag="prop")
    stats = cluster.run_app(engine.run(program))

    n = graph.num_vertices
    x = program.initial(graph, 0, n)
    for _ in range(4):
        x, _changed = program.apply(graph, x, 0, n)
    np.testing.assert_allclose(stats.values, x, rtol=1e-12)


@settings(max_examples=6, deadline=None)
@given(
    scale=st.integers(min_value=6, max_value=10),
    source=st.integers(min_value=0, max_value=63),
    seed=st.integers(min_value=0, max_value=1 << 16),
)
def test_distributed_bfs_matches_networkx(scale, source, seed):
    networkx = pytest.importorskip("networkx")
    from repro.graph import RStoreGraphEngine
    from repro.graph.loader import Graph

    n = 1 << scale
    # uniform random directed edges, duplicates allowed
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, 4 * n, dtype=np.int64)
    dst = rng.integers(0, n, 4 * n, dtype=np.int64)
    graph = Graph.from_edges(n, src, dst)
    cluster = build_cluster(
        num_machines=3,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )
    engine = RStoreGraphEngine(cluster, graph, tag="prop-bfs")
    stats = cluster.run_app(engine.run(bfs_from(source)))

    nxg = networkx.DiGraph()
    nxg.add_nodes_from(range(n))
    nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
    expected = networkx.single_source_shortest_path_length(nxg, source)
    for vertex in range(n):
        if vertex in expected:
            assert stats.values[vertex] == expected[vertex]
        else:
            assert np.isinf(stats.values[vertex])
