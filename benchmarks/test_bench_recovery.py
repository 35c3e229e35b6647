"""E15 — Control-plane recovery time vs metadata-log size.

Measures the robustness tentpole end to end: the master crashes while
serving a populated cluster, restarts, replays its checkpoint + WAL,
and the bench clocks the gap from the crash instant to the **first
successful post-recovery ``map``** by a cold client (redial + replay +
lookup + QP setup).  Swept over the number of committed regions so the
replay component's growth is visible.

Every run also proves zero committed-region loss: a pre-crash payload
is read back through the post-recovery mapping.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import (
    DeadlineExceededError,
    MasterUnavailableError,
    StaleEpochError,
)
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector

from benchmarks.conftest import fmt_ms, print_table

REGION_COUNTS = [4, 16, 64]
CRASH_AT = 0.5        # seconds after boot: setup is long done by then
OUTAGE = 0.05         # master down-time before the injector restarts it
POLL = 0.002          # client retry granularity while the master is gone
PAYLOAD = b"survived the crash"


def run_one(n_regions: int) -> dict:
    faults = FaultInjector(seed=42)
    faults.crash_master(at=CRASH_AT, restart_after=OUTAGE)
    cluster = build_cluster(
        num_machines=6,
        config=RStoreConfig(
            stripe_size=64 * KiB,
            default_replication=2,
            control_deadline_s=0.5,
            recovery_grace_s=0.2,
        ),
        server_capacity=64 * MiB,
        faults=faults,
    )
    sim = cluster.sim
    out: dict = {"regions": n_regions}

    def app():
        writer = cluster.client(1)
        for i in range(n_regions):
            yield from writer.alloc(f"r{i}", 64 * KiB, replication=2)
        mapping = yield from writer.map("r0")
        yield from mapping.write(0, PAYLOAD)
        out["metalog_appends_at_crash"] = cluster.metalog.appends

        t_crash = cluster.boot_time + CRASH_AT
        yield sim.timeout(max(0.0, t_crash - sim.now) + 1e-4)
        assert not cluster.master.alive, "bench clock missed the crash"

        # a cold client that has never spoken to the master: its first
        # successful map is the user-visible recovery moment
        reader = cluster.client(2)
        while True:
            try:
                recovered = yield from reader.map("r0")
                break
            except (MasterUnavailableError, DeadlineExceededError,
                    StaleEpochError):
                yield sim.timeout(POLL)
        out["t_first_map_s"] = sim.now - t_crash
        out["t_replay_s"] = out["t_first_map_s"] - OUTAGE

        data = yield from recovered.read(0, len(PAYLOAD))
        assert data == PAYLOAD, "committed region lost across recovery"
        stats = yield from reader._master_call("cluster_stats")
        out["epoch"] = stats["epoch"]
        out["regions_after"] = stats["regions"]

    cluster.run_app(app())
    assert out["regions_after"] == n_regions
    assert out["epoch"] >= 1  # recovery bumped the fence
    return out


def run_experiment():
    return [run_one(n) for n in REGION_COUNTS]


def test_e15_recovery_time(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        "E15: master crash -> first successful map (outage 50 ms)",
        ["regions", "WAL appends", "crash->map (ms)", "replay+redial (ms)",
         "epoch"],
        [
            [r["regions"], r["metalog_appends_at_crash"],
             fmt_ms(r["t_first_map_s"]), fmt_ms(r["t_replay_s"]),
             r["epoch"]]
            for r in rows
        ],
    )
    benchmark.extra_info["rows"] = rows

    # recovery must be dominated by the injected outage, not by replay:
    # even the largest log replays in a small fraction of the down-time
    for r in rows:
        assert r["t_first_map_s"] < OUTAGE + 0.1, (
            f"recovery took {r['t_first_map_s']:.3f}s for "
            f"{r['regions']} regions — replay or redial is dragging"
        )
