"""Chaos suite: control-plane crashes, partitions, and fencing.

Each scenario drives a workload through a seeded fault schedule that
attacks the *control plane* — the master process, the metadata log,
and the fabric between hosts — and asserts the recovery contract:

* **no committed region is ever lost** — an allocation the client saw
  succeed is resolvable (and its bytes intact) after the master
  crashes, restarts, and replays its metadata log;
* **stale holders are fenced, then healed** — a client whose epoch is
  behind gets exactly one deterministic ``StaleEpochError`` round-trip
  (refresh + retry), never a hang or silent corruption;
* **partitioned clients fail fast** — a client cut off from the master
  surfaces a typed error within its control deadline instead of
  retrying forever, and recovers once the partition heals;
* **repair rides out partitions** — server→server copies blocked by a
  split retry after the heal and still restore full replication;
* **the whole circus replays bit-for-bit** — same seed, same schedule,
  same final state, with the race sanitizer on or off.

The seed prints first; re-run one schedule with ``--seed <n>``.
"""

import hashlib
import random

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import (
    AllocationError,
    DeadlineExceededError,
    MasterUnavailableError,
    RegionUnavailableError,
)
from repro.sanitize import rsan_for
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector

from tests.harness.schedule import await_steady_master
from tests.probes import host_count


def _payload(rng: random.Random, length: int) -> bytes:
    return rng.randbytes(length)


# -- scenario 1: master crash in the middle of an allocation storm ----------

def test_master_crash_mid_allocation_loses_no_committed_region(seed, sanitize):
    print(f"\nchaos seed: {seed}" + (" (sanitized)" if sanitize else ""))
    rng = random.Random(seed ^ 0xC4A05)
    faults = FaultInjector(seed=seed)
    faults.crash_master(at=0.08, restart_after=0.12)
    config = RStoreConfig(
        stripe_size=8 * KiB,
        sanitize=sanitize,
        # tight budget: the 0.12s outage plus the 0.2s recovery grace
        # exceed one control deadline, so mid-crash allocations MUST
        # surface typed failures instead of riding the outage out
        control_deadline_s=0.1,
        recovery_grace_s=0.2,
    )
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(1)
    committed: dict[str, bytes] = {}
    failed: list[str] = []

    def app():
        for index in range(24):
            name = f"r{index}"
            payload = _payload(rng, 4 * KiB)
            try:
                yield from client.alloc(name, 8 * KiB)
            except (MasterUnavailableError, DeadlineExceededError,
                    AllocationError):
                # the crash window: the alloc may or may not have
                # committed master-side — the client only knows it
                # never got an acknowledgement
                failed.append(name)
            else:
                # acknowledged = committed: this region must survive
                mapping = yield from client.map(name)
                yield from mapping.write(0, payload)
                committed[name] = payload
            yield cluster.sim.timeout(rng.uniform(0.005, 0.02))

        yield from await_steady_master(cluster, client, give_up_after=5.0)

        names = set((yield from client.list_regions()))
        missing = sorted(set(committed) - names)
        assert not missing, (
            f"seed {seed}: committed regions lost across the master "
            f"crash: {missing}"
        )
        stray = sorted(names - set(committed) - set(failed))
        assert not stray, (
            f"seed {seed}: regions appeared that nobody allocated: {stray}"
        )
        for name, payload in sorted(committed.items()):
            mapping = yield from client.map(name)
            data = yield from mapping.read(0, len(payload))
            assert data == payload, (
                f"seed {seed}: {name!r} bytes diverged after recovery"
            )

    cluster.run_app(app())

    assert faults.injected["master_crashes"] == 1
    assert committed, f"seed {seed}: no alloc ever committed"
    assert failed, (
        f"seed {seed}: the crash window never bit an allocation — "
        "widen it"
    )
    # the client rode the outage out via redials, and its first
    # post-recovery mutation was fenced to the new epoch
    assert client.master_redials > 0
    assert client.retries_fenced > 0
    rsan = rsan_for(cluster.sim)
    assert rsan.races == [], (
        f"seed {seed}: sanitizer false positive:\n{rsan.report()}"
    )


# -- scenario 2: a network partition lands on background repair -------------

def test_partition_during_repair_still_restores_replication(seed, sanitize):
    print(f"\nchaos seed: {seed}" + (" (sanitized)" if sanitize else ""))
    rng = random.Random(seed ^ 0x9A27)
    faults = FaultInjector(seed=seed)
    # isolate every memory server from every other one — server→server
    # repair copies are cut, while heartbeats and client traffic
    # (master and clients live on host 0) keep flowing
    faults.partition([[1], [2], [3], [4], [5]], start=0.3, duration=0.5)
    config = RStoreConfig(stripe_size=16 * KiB, sanitize=sanitize)
    cluster = build_cluster(
        num_machines=6, config=config, server_hosts=range(1, 6),
        server_capacity=16 * MiB, faults=faults,
    )
    client = cluster.client(0)
    region_size = 64 * KiB
    payload = _payload(rng, region_size)
    kill_at = rng.uniform(0.03, 0.08)

    def app():
        desc = yield from client.alloc("vault", region_size, replication=2)
        mapping = yield from client.map(desc)
        yield from mapping.write(0, payload)

        yield cluster.sim.timeout(kill_at)
        victim = rng.choice(
            [r.host_id for r in desc.stripes[0].replicas]
        )
        cluster.kill_server(victim)

        # the descriptor still lists the dead host until its lease
        # expires — wait for the master to notice the death first
        deadline = cluster.sim.now + 5.0
        while True:
            stats = yield from client._master_call("cluster_stats")
            if stats["alive_servers"] < 5:
                break
            assert cluster.sim.now < deadline, (
                f"seed {seed}: the master never noticed server "
                f"{victim} dying"
            )
            yield cluster.sim.timeout(0.05)

        # lease expiry (and with it repair) lands inside the partition
        # window; blocked copies must retry after the heal and converge
        while True:
            desc = yield from client.lookup("vault")
            if all(
                s.replication >= desc.target_replication
                for s in desc.stripes
            ):
                break
            assert cluster.sim.now < deadline, (
                f"seed {seed}: repair never restored replication "
                f"(stripes at "
                f"{[s.replication for s in desc.stripes]})"
            )
            yield cluster.sim.timeout(0.05)

        mapping = yield from client.map("vault")
        data = yield from mapping.read(0, region_size)
        assert data == payload, (
            f"seed {seed}: bytes diverged across death + partition + repair"
        )

    cluster.run_app(app())
    repair = cluster.master.repair

    assert faults.injected["partition"] > 0, (
        f"seed {seed}: the partition never ate a message — repair "
        "finished outside the window"
    )
    assert repair.repaired >= 1
    assert repair.abandoned == 0, (
        f"seed {seed}: repair burned its whole attempt budget inside "
        f"one partition window:\n{repair.log}"
    )
    rsan = rsan_for(cluster.sim)
    assert rsan.races == [], (
        f"seed {seed}: sanitizer false positive:\n{rsan.report()}"
    )


# -- scenario 3: the master crashes again while still recovering ------------

def test_crash_during_recovery_converges(seed, sanitize):
    print(f"\nchaos seed: {seed}" + (" (sanitized)" if sanitize else ""))
    rng = random.Random(seed ^ 0x2CE11)
    faults = FaultInjector(seed=seed)
    faults.crash_master(at=0.06, restart_after=0.08)
    # the second crash lands inside the first restart's recovery grace
    # period — the half-recovered master dies and the *third* instance
    # must replay a log that already contains a recovery epoch bump
    faults.crash_master(at=0.20, restart_after=0.08)
    config = RStoreConfig(
        stripe_size=8 * KiB,
        sanitize=sanitize,
        control_deadline_s=0.3,
        recovery_grace_s=0.25,
    )
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(2)
    payload = _payload(rng, 8 * KiB)
    t0 = cluster.sim.now

    def app():
        yield from client.alloc("keep", 16 * KiB, replication=2)
        mapping = yield from client.map("keep")
        yield from mapping.write(0, payload)

        # let the whole two-crash schedule play out before settling
        yield cluster.sim.timeout(max(0.0, (t0 + 0.35) - cluster.sim.now))
        assert faults.injected["master_crashes"] == 2, (
            f"seed {seed}: the second crash missed the recovery window"
        )
        stats = yield from await_steady_master(
            cluster, client, give_up_after=6.0
        )
        # both recoveries bumped the epoch (server deaths may add more)
        assert stats["epoch"] >= 2, (
            f"seed {seed}: epoch {stats['epoch']} after two recoveries"
        )
        assert stats["alive_servers"] == 4, (
            f"seed {seed}: a server never found its way back: {stats}"
        )
        # the namespace survived two generations of master
        yield from client.alloc("after", 8 * KiB)
        names = yield from client.list_regions()
        assert {"keep", "after"} <= set(names)
        mapping = yield from client.map("keep")
        data = yield from mapping.read(0, len(payload))
        assert data == payload, (
            f"seed {seed}: bytes diverged across the double crash"
        )

    cluster.run_app(app())

    assert cluster.master.alive and not cluster.master.recovering
    rsan = rsan_for(cluster.sim)
    assert rsan.races == [], (
        f"seed {seed}: sanitizer false positive:\n{rsan.report()}"
    )


# -- scenario 4: epoch fencing is deterministic -----------------------------

def _fence_run(sanitize: bool):
    """One run of the lease-expiry fence scenario; returns its digest."""
    faults = FaultInjector(seed=7)
    faults.drop_heartbeats(2, start=0.02, duration=0.7)
    config = RStoreConfig(stripe_size=8 * KiB, sanitize=sanitize)
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(1)

    def app():
        # learns epoch 0 here
        yield from client.alloc("a", 16 * KiB, replication=2)
        # server 2's lease expires mid-sleep: epoch bumps master-side
        yield cluster.sim.timeout(0.8)
        # this mutation carries the stale epoch — the master fences it,
        # the client refreshes and retries exactly once, and it lands
        yield from client.alloc("b", 8 * KiB)
        stats = yield from client._master_call("cluster_stats")
        return stats

    stats = cluster.run_app(app())
    assert faults.injected["heartbeats"] > 0
    return (
        client.retries_fenced,
        stats["epoch"],
        cluster.master.epoch,
        cluster.sim.now,
    )


def test_stale_epoch_fence_fires_exactly_once_and_replays(sanitize):
    first = _fence_run(sanitize)
    fenced, epoch, master_epoch, _now = first
    assert fenced == 1, (
        f"expected exactly one fenced retry, saw {fenced}"
    )
    assert epoch >= 1 and epoch == master_epoch
    # the same schedule replays bit-for-bit, fence included
    assert _fence_run(sanitize) == first


# -- scenario 5: a partitioned client fails fast, then heals ----------------

def test_partitioned_client_fails_within_its_deadline(seed, sanitize):
    print(f"\nchaos seed: {seed}" + (" (sanitized)" if sanitize else ""))
    faults = FaultInjector(seed=seed)
    faults.partition([[2], [0, 1, 3]], start=0.0, duration=2.5)
    config = RStoreConfig(
        stripe_size=8 * KiB, sanitize=sanitize, control_deadline_s=0.8,
    )
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(2)
    # budget + one NIC retry-timeout round + one backoff: the absolute
    # worst-case overshoot of the typed failure
    slack = 1.0
    heal_at = cluster.sim.now + 2.5

    def app():
        start = cluster.sim.now
        with pytest.raises((MasterUnavailableError, DeadlineExceededError)):
            yield from client.alloc("wedged", 8 * KiB)
        elapsed = cluster.sim.now - start
        assert elapsed <= config.control_deadline_s + slack, (
            f"seed {seed}: partitioned client took {elapsed:.3f}s to "
            f"fail (deadline {config.control_deadline_s}s)"
        )
        # after the heal the same client works again, no restart needed
        yield cluster.sim.timeout(max(0.0, heal_at - cluster.sim.now) + 0.5)
        yield from client.alloc("healed", 8 * KiB)
        mapping = yield from client.map("healed")
        yield from mapping.write(0, b"back from the void")
        data = yield from mapping.read(0, 18)
        assert data == b"back from the void"

    cluster.run_app(app())

    assert faults.injected["partition"] > 0
    assert host_count(client, "client.deadlines_missed") >= 1
    rsan = rsan_for(cluster.sim)
    assert rsan.races == [], (
        f"seed {seed}: sanitizer false positive:\n{rsan.report()}"
    )


# -- scenario 6: the whole circus is bit-identical, sanitizer on or off -----

def _chaos_digest(seed: int, sanitize: bool):
    rng = random.Random(seed ^ 0xD161)
    faults = FaultInjector(seed=seed)
    faults.crash_master(at=0.06, restart_after=0.1)
    faults.partition([[3], [0, 1, 2]], start=0.02, duration=0.4)
    faults.fail_wire(1, start=0.0, duration=1.0, probability=0.3, times=3)
    config = RStoreConfig(
        stripe_size=8 * KiB,
        sanitize=sanitize,
        control_deadline_s=0.25,
        recovery_grace_s=0.2,
    )
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(1)
    outcomes = []

    def app():
        for index in range(10):
            name = f"d{index}"
            # RegionUnavailableError: an alloc may land on a partitioned
            # server the lease checker has not buried yet, and with one
            # copy the region is lost once it does
            try:
                yield from client.alloc(name, 8 * KiB)
                mapping = yield from client.map(name)
                yield from mapping.write(0, _payload(rng, 2 * KiB))
            except (MasterUnavailableError, DeadlineExceededError,
                    AllocationError, RegionUnavailableError) as exc:
                outcomes.append((name, type(exc).__name__))
            else:
                outcomes.append((name, "ok"))
            yield cluster.sim.timeout(rng.uniform(0.01, 0.05))
        yield from await_steady_master(cluster, client, give_up_after=5.0)
        digest = hashlib.sha256()
        for name, verdict in outcomes:
            digest.update(f"{name}={verdict};".encode())
            if verdict != "ok":
                continue
            mapping = yield from client.map(name)
            data = yield from mapping.read(0, 2 * KiB)
            digest.update(data)
        return digest.hexdigest()

    content = cluster.run_app(app())
    return (
        content,
        tuple(outcomes),
        client.retries_fenced,
        client.master_redials,
        cluster.master.epoch,
        cluster.sim.now,
        tuple(faults.log),
    )


def test_chaos_schedule_is_bit_identical_with_sanitizer(seed):
    plain = _chaos_digest(seed, sanitize=False)
    sanitized = _chaos_digest(seed, sanitize=True)
    assert plain == sanitized, (
        f"seed {seed}: RSan changed the chaos schedule's behaviour"
    )


# -- scenario 7: master dies while a partitioned server's call is in flight -

def test_master_crash_during_partition_orphans_no_rpc_failure(sanitize):
    """Regression: the crash used to fail a heartbeat's reply future
    while its owner was still parked inside ``send()`` behind the
    partition — nobody ever claimed the failure and the orphaned event
    crashed the simulation kernel.  The run must instead converge:
    the isolated server is buried, rejoins forced-fresh after the heal,
    and the region is healed back to full replication.
    """
    faults = FaultInjector(seed=99)
    faults.crash_master(at=0.10, restart_after=0.10)
    faults.partition([[3], [0, 1, 2, 4, 5]], start=0.05, duration=0.6)
    cluster = build_cluster(
        num_machines=6,
        server_hosts=[2, 3, 4, 5],
        config=RStoreConfig(
            stripe_size=64 * KiB,
            heartbeat_interval_s=0.05,
            lease_timeout_s=0.15,
            control_deadline_s=0.3,
            recovery_grace_s=0.2,
            sanitize=sanitize,
        ),
        server_capacity=64 * MiB,
        faults=faults,
    )
    sim = cluster.sim
    client = cluster.client(1)
    payload = b"kept through crash+partition"

    def app():
        yield from client.alloc("book", 256 * KiB, replication=2)
        mapping = yield from client.map("book")
        yield from mapping.write(0, payload)
        yield sim.timeout(max(0.0, cluster.boot_time + 1.2 - sim.now))
        stats = yield from await_steady_master(cluster, client, 2.0)
        assert stats["alive_servers"] >= 3
        data = yield from mapping.read(0, len(payload))
        assert data == payload
        # let the healed partition re-admit host 3 and repair finish
        yield sim.timeout(max(0.0, cluster.boot_time + 2.0 - sim.now))
        slot = cluster.master.allocator.get_server(3)
        assert slot is not None and slot.alive
        assert cluster.servers[3].nic.fence_for(0) == slot.epoch
        region = cluster.master.regions["book"]
        assert all(s.replication == region.target_replication
                   for s in region.stripes)

    cluster.run_app(app())
    assert cluster.faults.injected["master_crashes"] == 1
    assert cluster.faults.injected["partition"] > 0
    if sanitize:
        assert rsan_for(sim).races == []
