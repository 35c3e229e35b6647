"""Simulations are bit-for-bit deterministic.

Determinism is what makes simulated measurements citable: the same
configuration must produce the same clock, the same bytes and the same
metrics on every run, regardless of host hash seeds or dict ordering.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB
from tests.probes import pagerank


def run_scenario():
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=32 * MiB,
    )
    sim = cluster.sim
    trace = [("boot", cluster.boot_time)]

    def worker(host):
        client = cluster.client(host)
        mapping = yield from client.map("det")
        local = yield from client.alloc_local(64 * KiB)
        for i in range(5):
            yield from mapping.write_from(local, local.addr,
                                          (host * 5 + i) * KiB, KiB)
            yield from mapping.read_into(local, local.addr, 0, 4 * KiB)
        trace.append((f"worker-{host}", sim.now))

    def app():
        yield from cluster.client(0).alloc("det", 256 * KiB)
        procs = [sim.process(worker(h)) for h in (1, 2, 3)]
        yield sim.all_of(procs)
        old = yield from (yield from cluster.client(1).map("det")).faa(0, 7)
        trace.append(("faa", old, sim.now))

    cluster.run_app(app())
    trace.append(("bytes", cluster.network_bytes()))
    trace.append(("end", sim.now))
    return trace


def test_identical_runs_produce_identical_traces():
    assert run_scenario() == run_scenario()


def test_sort_is_deterministic():
    from repro.sort import RSort

    def one():
        cluster = build_cluster(
            num_machines=3,
            config=RStoreConfig(stripe_size=64 * KiB),
            server_capacity=64 * MiB,
        )
        sorter = RSort(cluster, records_per_worker=1200, seed=9, tag="det")
        stats = cluster.run_app(sorter.run())
        output = cluster.run_app(sorter.collect_output())
        return stats.elapsed, output.tobytes()

    first = one()
    second = one()
    assert first[0] == second[0]
    assert first[1] == second[1]


def test_pagerank_is_deterministic():
    from repro.graph import RStoreGraphEngine
    from repro.graph.loader import Graph
    from repro.workloads.graphs import rmat_edges

    def one():
        cluster = build_cluster(
            num_machines=3,
            config=RStoreConfig(stripe_size=128 * KiB),
            server_capacity=64 * MiB,
        )
        src, dst = rmat_edges(scale=9, seed=3)
        graph = Graph.from_edges(1 << 9, src, dst)
        engine = RStoreGraphEngine(cluster, graph, tag="det")
        stats = cluster.run_app(engine.run(pagerank(4)))
        return stats.elapsed, stats.values.tobytes()

    a = one()
    b = one()
    assert a[0] == b[0]
    assert a[1] == b[1]
