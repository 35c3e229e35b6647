#!/usr/bin/env python
"""Riding through a master crash — WAL replay, epoch fencing, retry.

A client writes a dataset, the master is killed mid-workload, and a
scheduled restart replays the metadata write-ahead log: every region
committed before the crash survives, allocations attempted during the
outage fail fast with a typed error (never silently hang), and the
recovered master comes back with a **bumped cluster epoch** so any
stale-epoch straggler is fenced instead of corrupting state.  The
printed timeline shows each phase as the cluster lived it.

Run:  python examples/master_failover.py
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

CRASH_AT = 0.10     # seconds after boot
OUTAGE = 0.08       # master down-time
PAYLOAD = b"metadata must survive the master"


def main():
    faults = FaultInjector(seed=11)
    faults.crash_master(at=CRASH_AT, restart_after=OUTAGE)
    cluster = build_cluster(
        num_machines=5,
        config=RStoreConfig(
            stripe_size=64 * KiB,
            control_deadline_s=0.05,   # tighter than the outage: the
            recovery_grace_s=0.1,      # mid-crash alloc MUST fail fast
        ),
        server_capacity=64 * MiB,
        faults=faults,
    )
    sim = cluster.sim
    client = cluster.client(1)

    def stamp(message):
        print(f"[{sim.now * 1e3:8.2f} ms] {message}")

    def app():
        # -- before the crash: commit a region ---------------------------
        yield from client.alloc("ledger", 256 * KiB, replication=2)
        mapping = yield from client.map("ledger")
        yield from mapping.write(0, PAYLOAD)
        stamp(f"'ledger' committed (WAL appends so far: "
              f"{cluster.metalogs[0].appends})")

        # -- during the outage: allocations fail fast --------------------
        t_crash = cluster.boot_time + CRASH_AT
        yield sim.timeout(max(0.0, t_crash - sim.now) + 0.005)
        stamp(f"master alive: {cluster.master.alive} — trying to alloc "
              f"through the outage")
        try:
            yield from client.alloc("doomed", 64 * KiB)
            raise AssertionError("alloc should not survive the outage")
        except (MasterUnavailableError, DeadlineExceededError) as exc:
            stamp(f"alloc failed fast: {type(exc).__name__}: {exc}")

        # -- after the restart: replay + epoch bump ----------------------
        while True:
            try:
                stats = yield from client._master_call("cluster_stats")
                if not stats["recovering"]:
                    break
            except (MasterUnavailableError, DeadlineExceededError,
                    StaleEpochError):
                pass
            yield sim.timeout(0.01)
        stamp(f"master recovered: epoch {stats['epoch']}, "
              f"{stats['regions']} region(s) replayed from the WAL, "
              f"{stats['alive_servers']} servers re-registered")

        # the pre-crash mapping still works: a fenced op refreshes the
        # client's metadata once and replays, invisibly to the caller
        data = yield from mapping.read(0, len(PAYLOAD))
        assert data == PAYLOAD
        stamp(f"pre-crash mapping reads back intact -> {data[:17]!r}...")

        region = yield from client.alloc("after", 64 * KiB)
        stamp(f"post-recovery alloc works: 'after' "
              f"(region id {region.region_id}, epoch {region.epoch})")
        return stats

    stats = cluster.run_app(app())
    print(f"client retry budget spent: "
          f"{client.master_redials} redial(s), "
          f"{client.retries_fenced} fenced refresh(es)")
    assert stats["epoch"] >= 1
    print("master failover survived: no committed region lost")


if __name__ == "__main__":
    main()
