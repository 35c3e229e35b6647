"""Shard chaos: one metadata shard crashes while the rest keep serving.

Each seed drives a two-tenant allocation storm across a 3-shard
control plane, crashes one shard mid-storm, and asserts the
partitioned-control-plane contract:

* **survivor shards never miss a beat** — allocs and lookups for names
  they own succeed throughout the victim's outage;
* **cached leases ride the outage** — mapping a region of the *dead*
  shard stays a zero-RPC cache hit, and its one-sided reads keep
  flowing (the data plane never routed through the master);
* **replay heals the victim** — committed regions on the crashed shard
  are resolvable after restart and their bytes are intact, while the
  client's first post-recovery mutation on that shard is fenced to the
  new epoch exactly like the single-master chaos suite demands;
* **quota isolation holds under chaos** — one tenant exhausting its
  capacity budget collects ``TenantQuotaExceededError``\\ s without
  costing the other tenant a single allocation.
"""

import random

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import (
    AllocationError,
    DeadlineExceededError,
    MasterUnavailableError,
    TenantQuotaExceededError,
)
from repro.core.shard import ShardMap
from repro.sanitize import rsan_for
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector

from tests.harness.schedule import await_steady_master

SHARDS = 3


def test_one_shard_crash_leaves_survivors_serving(seed, sanitize):
    print(f"\nshard-chaos seed: {seed}" + (" (sanitized)" if sanitize else ""))
    rng = random.Random(seed ^ 0x5A4D)
    ring = ShardMap(SHARDS)
    # aim the crash at whichever shard owns the first committed name,
    # so the outage always bites a region we hold a cached lease on
    names = [f"{'acme' if i % 2 else 'globex'}/r{i}" for i in range(18)]
    victim_shard = ring.shard_of(names[0])
    survivor_names = [n for n in names if ring.shard_of(n) != victim_shard]
    assert survivor_names, "ring degenerated: every name on one shard"

    faults = FaultInjector(seed=seed)
    faults.crash_master(at=0.08, restart_after=0.15, shard=victim_shard)
    config = RStoreConfig(
        stripe_size=8 * KiB,
        sanitize=sanitize,
        control_shards=SHARDS,
        control_deadline_s=0.1,
        recovery_grace_s=0.2,
        tenant_quota_bytes={"acme": 2 * MiB},
    )
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=24 * MiB,
        faults=faults,
    )
    client = cluster.client(1)
    committed: dict[str, bytes] = {}
    failed: list[str] = []
    outage_survivor_allocs = 0

    def app():
        nonlocal outage_survivor_allocs
        t0 = cluster.sim.now
        # -- before the crash: commit the first few names and cache
        # their leases (alloc populates the metadata cache)
        for name in names[:6]:
            yield from client.alloc(name, 16 * KiB)
            mapping = yield from client.map(name)
            payload = rng.randbytes(4 * KiB)
            yield from mapping.write(0, payload)
            committed[name] = payload
        victim_cached = names[0]
        assert ring.shard_of(victim_cached) == victim_shard

        # -- step into the outage window (crash at 0.08, restart 0.15
        # later): the victim is down, the survivors are not
        yield cluster.sim.timeout(t0 + 0.1 - cluster.sim.now)

        # a cached lease on the DEAD shard still maps and reads with
        # zero control RPCs (the data path is one-sided)
        before = client.master_calls
        mapping = yield from client.map(victim_cached)
        data = yield from mapping.read(0, len(committed[victim_cached]))
        assert data == committed[victim_cached]
        assert client.master_calls == before, (
            f"seed {seed}: mapping a cached region touched a master "
            "during the outage"
        )

        # survivor-shard allocs land while the victim is dark; a
        # victim-shard alloc surfaces a typed failure
        for index, name in enumerate(names[6:], start=6):
            mid_outage = cluster.sim.now < t0 + 0.2
            try:
                yield from client.alloc(name, 16 * KiB)
            except (MasterUnavailableError, DeadlineExceededError,
                    AllocationError):
                assert ring.shard_of(name) == victim_shard, (
                    f"seed {seed}: survivor-shard alloc of {name!r} "
                    "failed during the victim's outage"
                )
                failed.append(name)
            else:
                mapping = yield from client.map(name)
                payload = rng.randbytes(4 * KiB)
                yield from mapping.write(0, payload)
                committed[name] = payload
                if ring.shard_of(name) != victim_shard and mid_outage:
                    outage_survivor_allocs += 1
            yield cluster.sim.timeout(rng.uniform(0.002, 0.008))

        # -- recovery: the victim replays its WAL and settles
        yield from await_steady_master(cluster, client, give_up_after=5.0,
                                       shard=victim_shard)

        # the first mutation on the victim shard after its restart
        # carries a stale observed epoch and must take the
        # fence-refresh-retry path — the storm's tail usually already
        # did; otherwise probe it explicitly
        if client.retries_fenced == 0:
            probe = f"acme/post-{seed}"
            while ring.shard_of(probe) != victim_shard:
                probe = probe + "x"
            yield from client.alloc(probe, 16 * KiB)
            committed[probe] = b""
        assert client.retries_fenced > 0, (
            f"seed {seed}: no post-recovery mutation was ever fenced"
        )

        # -- census: committed regions survived, bytes intact
        listed = set((yield from client.list_regions()))
        missing = sorted(set(committed) - listed)
        assert not missing, (
            f"seed {seed}: committed regions lost in the shard crash: "
            f"{missing}"
        )
        for name, payload in sorted(committed.items()):
            if not payload:
                continue
            mapping = yield from client.map(name)
            data = yield from mapping.read(0, len(payload))
            assert data == payload, (
                f"seed {seed}: {name!r} bytes diverged after replay"
            )

        # -- quota isolation under chaos: acme exhausts its budget,
        # globex never notices
        denials = 0
        for index in range(64):
            try:
                yield from client.alloc(f"acme/fill-{index}", 256 * KiB)
            except TenantQuotaExceededError:
                denials += 1
                if denials >= 2:
                    break
            except (MasterUnavailableError, DeadlineExceededError,
                    AllocationError):
                continue
        assert denials >= 2, f"seed {seed}: acme never hit its quota"
        yield from client.alloc("globex/unbothered", 256 * KiB)

    cluster.run_app(app())

    assert faults.injected["master_crashes"] == 1
    assert failed or outage_survivor_allocs, (
        f"seed {seed}: the crash window bit nothing — widen it"
    )
    assert outage_survivor_allocs > 0, (
        f"seed {seed}: no survivor-shard alloc landed during the outage"
    )
    # the survivors' masters never restarted: their epochs never moved
    for shard, master in enumerate(cluster.masters):
        if shard != victim_shard:
            assert master.alive
    rsan = rsan_for(cluster.sim)
    assert rsan.races == [], (
        f"seed {seed}: sanitizer false positive:\n{rsan.report()}"
    )
