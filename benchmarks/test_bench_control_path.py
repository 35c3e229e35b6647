"""E1 — Control-path cost: allocate and map vs region size.

Anchors the abstract's "carefully separating resource setup from IO":
allocations grow with stripe count (placement and reservation in the
master's own slices of the server arenas — no memory server is asked,
so even the very first allocation dials nothing); a cold map pays
per-server connection establishment; a warm map — connections cached —
costs a single name lookup.  This is the cost RStore pays *once* so
the data path (E2) never does.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import GiB, KiB, MiB

from benchmarks.conftest import fmt_us, note, print_table

SIZES = [64 * KiB, 1 * MiB, 16 * MiB, 256 * MiB]


def run_experiment():
    cluster = build_cluster(
        num_machines=12,
        config=RStoreConfig(stripe_size=1 * MiB),
        server_capacity=2 * GiB,
    )
    sim = cluster.sim
    result = {"first_alloc": 0.0, "rows": []}

    def app():
        # The very first allocation: the master dials no memory server,
        # so it should cost what a steady one does; measure it apart.
        warm_client = cluster.client(0)
        t0 = sim.now
        yield from warm_client.alloc("e1-first", 12 * MiB)
        result["first_alloc"] = sim.now - t0

        for i, size in enumerate(SIZES):
            t0 = sim.now
            region = yield from warm_client.alloc(f"e1-{size}", size)
            t_alloc = sim.now - t0

            cold_client = cluster.client(1 + i)  # never mapped anything
            t0 = sim.now
            yield from cold_client.map(region)
            t_cold = sim.now - t0

            t0 = sim.now
            yield from cold_client.map(f"e1-{size}")  # by name: lookup+cached
            t_warm = sim.now - t0

            result["rows"].append(
                [size, len(region.stripes), t_alloc, t_cold, t_warm]
            )

    cluster.run_app(app())
    result["master_server_channels"] = sum(
        len(master._server_rpc.clients) for master in cluster.masters)
    return result


def test_e1_control_path(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = result["rows"]
    print_table(
        benchmark,
        "E1: control path — alloc / map latency vs region size (12 machines)",
        ["size", "stripes", "alloc (us)", "map cold (us)", "map warm (us)"],
        [
            [f"{size // KiB} KiB", stripes, fmt_us(a), fmt_us(c), fmt_us(w)]
            for size, stripes, a, c, w in rows
        ],
    )
    note(benchmark, "first-ever alloc (no master->server connects): "
         f"{fmt_us(result['first_alloc'])} us")
    benchmark.extra_info["first_alloc_s"] = result["first_alloc"]
    benchmark.extra_info["rows"] = [
        {"size": s, "stripes": n, "alloc_s": a, "map_cold_s": c,
         "map_warm_s": w}
        for s, n, a, c, w in rows
    ]
    allocs = [a for _s, _n, a, _c, _w in rows]
    colds = [c for _s, _n, _a, c, _w in rows]
    # steady-state allocation grows with stripe count
    assert allocs[-1] > allocs[0]
    # cold map grows with the number of servers to connect to
    assert colds[-1] > 5 * colds[0]
    # a warm map is orders cheaper than a cold one for striped regions
    for _size, stripes, _a, cold, warm in rows:
        if stripes >= 12:
            assert warm < cold / 20
    # allocation opens no master->server channel, so the first one
    # costs no more than the 16-stripe steady one
    assert result["master_server_channels"] == 0
    assert result["first_alloc"] <= allocs[2]
