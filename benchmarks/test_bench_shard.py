"""E16 — Control-plane scaling with metadata shards.

The partitioned control plane's pitch: N independent metadata shards
serve N times the allocation storm, while the client metadata cache
turns repeat ``map``\\ s into zero-RPC hits.  This bench sweeps the
shard count over a fixed concurrent allocation workload and clocks

* aggregate control-plane throughput (allocs/s of simulated time),
* cold ``map`` latency (lookup at the owning shard + QP setup),
* warm ``map`` latency (served from the client's lease cache),

and proves the warm path never touches a master.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.obs import obs_for
from repro.obs.report import shard_census
from repro.simnet.config import KiB, MiB

from benchmarks.conftest import fmt_us, print_table

SHARD_COUNTS = [1, 2, 4, 8]
WRITERS = 4           # concurrent allocating clients
ALLOCS_EACH = 32      # regions per writer
SAMPLES = 16          # names probed for cold/warm map latency


def run_one(shards: int) -> dict:
    cluster = build_cluster(
        num_machines=8,
        config=RStoreConfig(stripe_size=64 * KiB, control_shards=shards),
        server_capacity=128 * MiB,
    )
    sim = cluster.sim
    metrics = obs_for(sim).metrics
    out: dict = {"shards": shards}

    def writer(host: int, tag: str):
        client = cluster.client(host)
        for i in range(ALLOCS_EACH):
            yield from client.alloc(f"t{host}/{tag}{i}", 64 * KiB)

    def app():
        # -- warm-up storm: pay every client<->shard dial once, outside
        # the measurement window
        procs = [
            sim.process(writer(host, "warm"), name=f"warmer-{host}")
            for host in range(1, 1 + WRITERS)
        ]
        yield sim.all_of(procs)

        # -- aggregate control throughput: 4 writers storm the plane
        t0 = sim.now
        procs = [
            sim.process(writer(host, "r"), name=f"writer-{host}")
            for host in range(1, 1 + WRITERS)
        ]
        yield sim.all_of(procs)
        elapsed = sim.now - t0
        total = WRITERS * ALLOCS_EACH
        out["alloc_elapsed_s"] = elapsed
        out["allocs_per_s"] = total / elapsed
        out["per_shard_rpcs"] = shard_census(metrics)

        # -- map latency, cold vs warm, from a fresh client
        reader = cluster.client(5)
        names = [f"t{1 + i % WRITERS}/r{i // WRITERS}"
                 for i in range(SAMPLES)]
        t0 = sim.now
        for name in names:
            yield from reader.map(name)
        out["map_cold_s"] = (sim.now - t0) / SAMPLES

        before = reader.master_calls
        t0 = sim.now
        for name in names:
            yield from reader.map(name)
        out["map_warm_s"] = (sim.now - t0) / SAMPLES
        out["warm_rpcs"] = reader.master_calls - before
        out["cache_hits"] = reader.metadata_cache_hits

    cluster.run_app(app())
    return out


def run_experiment():
    return [run_one(shards) for shards in SHARD_COUNTS]


def test_e16_shard_scaling(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        f"E16: control-plane scaling — {WRITERS} writers x "
        f"{ALLOCS_EACH} allocs, {SAMPLES} map probes",
        ["shards", "allocs/s", "map cold (us)", "map warm (us)",
         "warm RPCs"],
        [
            [r["shards"], f"{r['allocs_per_s']:,.0f}",
             fmt_us(r["map_cold_s"]), fmt_us(r["map_warm_s"]),
             r["warm_rpcs"]]
            for r in rows
        ],
    )
    benchmark.extra_info["rows"] = rows

    by_shards = {r["shards"]: r for r in rows}
    # partitioning the namespace buys real control-plane throughput
    # (the curve need not be monotone — 4 writers hash unevenly over 4
    # shards — but the headline gain must be there)
    assert by_shards[8]["allocs_per_s"] > 2 * by_shards[1]["allocs_per_s"]
    assert by_shards[2]["allocs_per_s"] > by_shards[1]["allocs_per_s"]
    for r in rows:
        # the warm path is pure client state: zero RPCs, and orders of
        # magnitude cheaper than the cold lookup it replaced
        assert r["warm_rpcs"] == 0
        assert r["map_warm_s"] < r["map_cold_s"] / 20
        # every shard served some of the storm
        assert all(n > 0 for n in r["per_shard_rpcs"].values())
