"""Whole-stack consistency: the store behaves like remote memory.

Hypothesis drives random operation sequences through the full simulated
stack (client library → verbs → fabric → server arenas) and checks
every read against a plain ``bytearray`` reference model.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB
from tests.probes import pagerank

REGION_SIZE = 256 * KiB


@settings(max_examples=25, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),  # write?
            st.integers(min_value=0, max_value=REGION_SIZE - 1),
            st.integers(min_value=1, max_value=16 * KiB),
        ),
        min_size=1,
        max_size=25,
    ),
    stripe_kib=st.sampled_from([16, 64, 177]),
)
def test_random_ops_match_bytearray_model(ops, stripe_kib):
    cluster = build_cluster(
        num_machines=3,
        config=RStoreConfig(stripe_size=stripe_kib * KiB),
        server_capacity=16 * MiB,
    )
    client = cluster.client(1)
    reference = bytearray(REGION_SIZE)
    rng = np.random.default_rng(1234)

    def app():
        region = yield from client.alloc("model", REGION_SIZE)
        mapping = yield from client.map(region)
        for is_write, offset, length in ops:
            length = min(length, REGION_SIZE - offset)
            if is_write:
                payload = rng.integers(0, 256, length,
                                       dtype=np.uint8).tobytes()
                yield from mapping.write(offset, payload)
                reference[offset : offset + length] = payload
            else:
                data = yield from mapping.read(offset, length)
                assert data == bytes(reference[offset : offset + length])
        whole = yield from read_all(mapping)
        assert whole == bytes(reference)

    def read_all(mapping):
        parts = []
        pos = 0
        while pos < REGION_SIZE:
            take = min(4 * MiB, REGION_SIZE - pos)
            parts.append((yield from mapping.read(pos, take)))
            pos += take
        return b"".join(parts)

    cluster.run_app(app())


def test_interleaved_writers_to_disjoint_ranges():
    """Concurrent clients writing disjoint halves never interfere."""
    cluster = build_cluster(
        num_machines=3,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )
    sim = cluster.sim
    half = REGION_SIZE // 2

    def writer(host, base, fill):
        client = cluster.client(host)
        mapping = yield from client.map("halves")
        for i in range(8):
            yield from mapping.write(base + i * (half // 8),
                                     bytes([fill]) * (half // 8))

    def app():
        yield from cluster.client(0).alloc("halves", REGION_SIZE)
        procs = [
            sim.process(writer(1, 0, 0xAA)),
            sim.process(writer(2, half, 0xBB)),
        ]
        yield sim.all_of(procs)
        mapping = yield from cluster.client(0).map("halves")
        lo = yield from mapping.read(0, half)
        hi = yield from mapping.read(half, half)
        return lo, hi

    lo, hi = cluster.run_app(app())
    assert lo == bytes([0xAA]) * half
    assert hi == bytes([0xBB]) * half


def test_graph_and_sort_share_one_cluster():
    """Two full applications coexist on the same deployment."""
    from repro.graph import RStoreGraphEngine
    from repro.graph.loader import Graph
    from repro.sort import RSort
    from repro.workloads.graphs import rmat_edges
    from repro.workloads.kv import is_sorted

    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=128 * KiB),
        server_capacity=256 * MiB,
    )
    src, dst = rmat_edges(scale=8, seed=2)
    graph = Graph.from_edges(1 << 8, src, dst)
    engine = RStoreGraphEngine(cluster, graph, tag="coexist-g")
    sorter = RSort(cluster, records_per_worker=1500, seed=6, tag="coexist-s")

    sim = cluster.sim
    results = {}

    def run_graph():
        stats = yield from engine.run(pagerank(4))
        results["ranks"] = stats.values

    def run_sort():
        yield from sorter.run()
        out = yield from sorter.collect_output()
        results["sorted"] = out

    def app():
        yield sim.all_of([sim.process(run_graph()), sim.process(run_sort())])

    cluster.run_app(app())
    assert results["ranks"].sum() == pytest.approx(1.0, abs=1e-9)
    assert is_sorted(results["sorted"])
    assert len(results["sorted"]) == sorter.total_records
