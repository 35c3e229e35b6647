"""E3 — Aggregate bandwidth vs cluster size.

Anchors the abstract's headline number: "high aggregate bandwidth
(705 Gb/s) ... on our 12-machine testbed".  Every machine reads a
region striped over all memory servers; with N machines reading
concurrently the fabric should deliver close to N x link rate.  On FDR
(54.3 Gb/s usable per direction) 12 machines give ~650 Gb/s — the same
shape as the paper, within ~8% of its absolute number (their testbed's
aggregate counts slightly differently; see EXPERIMENTS.md).
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import GiB, MiB

from benchmarks.conftest import claim, fmt_gbps, print_table

MACHINES = [2, 4, 6, 8, 10, 12]
PER_CLIENT_REAL = 16 * MiB
WIRE_SCALE = 16  # each client moves 256 MiB logical


def run_one(machines: int, per_client_real: int = PER_CLIENT_REAL,
            net_config=None) -> float:
    """Aggregate all-to-all read bandwidth in bit/s (E11 re-runs this
    workload on an oversubscribed fabric)."""
    cluster = build_cluster(
        num_machines=machines,
        config=RStoreConfig(stripe_size=1 * MiB),
        net_config=net_config,
        server_capacity=1 * GiB,
    )
    sim = cluster.sim
    region_size = machines * per_client_real

    moved = {"bytes": 0}

    def reader(host, desc):
        """Read every stripe hosted on a *different* machine, all
        concurrently.

        The paper's number is fabric bandwidth, so loopback to the
        local memory server neither counts nor competes.
        """
        client = cluster.client(host)
        mapping = yield from client.map("bw", wire_scale=WIRE_SCALE)
        local = yield from client.alloc_local(region_size)
        stripe = desc.stripe_size

        def one(s):
            yield from mapping.read_into(
                local, local.addr + s.index * stripe, s.index * stripe,
                s.length,
            )
            moved["bytes"] += s.length * WIRE_SCALE

        procs = [
            cluster.sim.process(one(s))
            for s in desc.stripes
            if s.host_id != host
        ]
        yield cluster.sim.all_of(procs)

    def app():
        coordinator = cluster.client(0)
        desc = yield from coordinator.alloc("bw", region_size)
        # pre-map on every host so only the transfer is timed
        for host in range(machines):
            yield from cluster.client(host).map("bw")
        t0 = sim.now
        procs = [
            sim.process(reader(host, desc), name=f"bw-{host}")
            for host in range(machines)
        ]
        yield sim.all_of(procs)
        elapsed = sim.now - t0
        return moved["bytes"] * 8 / elapsed

    return cluster.run_app(app())


def run_experiment():
    return [(m, run_one(m)) for m in MACHINES]


def test_e3_aggregate_bandwidth(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    link = 54.3  # Gb/s usable per direction (FDR)
    print_table(
        benchmark,
        "E3: aggregate read bandwidth vs cluster size (paper: 705 Gb/s @ 12)",
        ["machines", "aggregate (Gb/s)", "per-machine (Gb/s)",
         "link efficiency"],
        [
            [m, fmt_gbps(bw), fmt_gbps(bw / m), f"{bw / 1e9 / m / link:.2f}"]
            for m, bw in rows
        ],
    )
    benchmark.extra_info["rows"] = [
        {"machines": m, "aggregate_gbps": bw / 1e9} for m, bw in rows
    ]
    by_m = dict(rows)
    # near-linear scaling with cluster size
    assert by_m[12] > 5 * by_m[2]
    # each machine sustains most of its link
    for m, bw in rows:
        assert bw / 1e9 / m > 0.80 * link
    # the 12-machine aggregate lands in the paper's neighbourhood
    claim(benchmark, "aggregate read bandwidth, 12 machines", paper=705,
          measured=by_m[12] / 1e9, band=(550, 720), unit=" Gb/s")
