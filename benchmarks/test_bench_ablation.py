"""E9 — Ablating the separation philosophy.

What exactly does keeping setup off the data path buy?  Three designs
run the same workload (random 4 KiB reads plus a 16 MiB scan):

* **RStore** — metadata resolved and connections established at map
  time; pure one-sided data path.
* **resolve-per-IO** — every operation first asks the master where the
  bytes live (the design RStore's descriptor caching eliminates).
* **two-sided** — data moves through the server CPU with messaging
  (the design one-sided RDMA eliminates).
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB, us

from benchmarks.conftest import fmt_us, no_setup, print_table

OPS = 100
OP_SIZE = 4 * KiB
SCAN_SIZE = 16 * MiB


def run_variant(name, **config_kwargs):
    cluster = build_cluster(
        num_machines=6,
        config=RStoreConfig(stripe_size=1 * MiB, **config_kwargs),
        server_capacity=128 * MiB,
    )
    sim = cluster.sim
    client = cluster.client(1)

    def app():
        yield from client.alloc("e9", SCAN_SIZE)
        mapping = yield from client.map("e9")
        local = yield from client.alloc_local(SCAN_SIZE)
        yield from mapping.read_into(local, local.addr, 0, OP_SIZE)  # warm

        with no_setup(client):
            t0 = sim.now
            for i in range(OPS):
                offset = (i * 37 * OP_SIZE) % (SCAN_SIZE - OP_SIZE)
                yield from mapping.read_into(local, local.addr, offset,
                                             OP_SIZE)
            small_lat = (sim.now - t0) / OPS

        with no_setup(client):
            t0 = sim.now
            yield from mapping.read_into(local, local.addr, 0, SCAN_SIZE)
            scan_s = sim.now - t0
        return small_lat, scan_s

    small_lat, scan_s = cluster.run_app(app())
    return [name, small_lat, scan_s, SCAN_SIZE * 8 / scan_s / 1e9]


def run_experiment():
    return [
        run_variant("RStore (separated)"),
        run_variant("resolve per IO", resolve_per_io=True),
        run_variant("two-sided data path", two_sided_data_path=True),
    ]


def run_replication_sweep():
    """Write cost vs replication factor (the availability extension)."""
    cluster = build_cluster(
        num_machines=6,
        config=RStoreConfig(stripe_size=1 * MiB),
        server_capacity=128 * MiB,
    )
    sim = cluster.sim
    client = cluster.client(1)
    rows = []

    def app():
        local = yield from client.alloc_local(SCAN_SIZE)
        for factor in (1, 2, 3):
            yield from client.alloc(f"rep{factor}", SCAN_SIZE,
                                    replication=factor)
            mapping = yield from client.map(f"rep{factor}")
            yield from mapping.write_from(local, local.addr, 0, 1024)  # warm
            t0 = sim.now
            yield from mapping.write_from(local, local.addr, 0, SCAN_SIZE)
            write_s = sim.now - t0
            t1 = sim.now
            yield from mapping.read_into(local, local.addr, 0, SCAN_SIZE)
            read_s = sim.now - t1
            rows.append([factor, write_s, read_s])

    cluster.run_app(app())
    return rows


def test_e9_separation_ablation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        "E9: what separation buys (4 KiB random reads; 16 MiB scan)",
        ["design", "4KiB read (us)", "scan (ms)", "scan (Gb/s)"],
        [
            [name, fmt_us(lat), f"{scan * 1e3:.2f}", f"{gbps:.1f}"]
            for name, lat, scan, gbps in rows
        ],
    )
    benchmark.extra_info["rows"] = [
        {"design": n, "small_read_s": lat, "scan_s": s, "scan_gbps": g}
        for n, lat, s, g in rows
    ]
    rep_rows = run_replication_sweep()
    print_table(
        benchmark,
        "E9b: replication extension — 16 MiB write/read vs copies",
        ["replication", "write (ms)", "read (ms)"],
        [
            [factor, f"{w * 1e3:.2f}", f"{r_ * 1e3:.2f}"]
            for factor, w, r_ in rep_rows
        ],
    )
    benchmark.extra_info["replication"] = [
        {"factor": f, "write_s": w, "read_s": r_} for f, w, r_ in rep_rows
    ]
    # writes scale with copy count; reads stay at single-copy cost
    assert rep_rows[1][1] > 1.6 * rep_rows[0][1]
    assert rep_rows[2][1] > 2.3 * rep_rows[0][1]
    assert rep_rows[2][2] < 1.5 * rep_rows[0][2]

    base_lat, per_io_lat, two_sided_lat = (r[1] for r in rows)
    base_scan, per_io_scan, two_sided_scan = (r[2] for r in rows)
    # resolving metadata per IO multiplies small-op latency
    assert per_io_lat > 2 * base_lat
    # pushing data through the server CPU hurts both latency and scans
    assert two_sided_lat > 1.5 * base_lat
    assert two_sided_scan > 2 * base_scan
    # the separated design keeps small reads in the us range
    assert base_lat < us(8)
