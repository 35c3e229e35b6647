"""Background stripe repair: self-healing replication.

Semantics pinned here:

* killing one server of a ``replication=2`` region during sustained
  writes is invisible to the application — zero errors, every write
  readable afterwards — and the master heals the region back to full
  replication in the background (version advances past the promotion
  bump);
* the repaired copy lands on a live server that did not already hold
  one, and its bytes match the surviving primary;
* injected transient wire faults are absorbed by client retry;
* a repair made moot mid-copy (its region freed) gives back every
  byte it reserved on the target;
* the whole scenario — fault schedule, repair timeline, final bytes —
  replays bit-for-bit from a fixed seed.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig, RStoreError
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector
from tests.probes import live_allocations

REGION = 256 * KiB
CHUNK = 4 * KiB


def fresh_cluster(seed=7, machines=5, faults=None):
    return build_cluster(
        num_machines=machines,
        config=RStoreConfig(stripe_size=64 * KiB, heartbeat_interval_s=0.02,
                            lease_timeout_s=0.07, seed=seed),
        server_capacity=64 * MiB,
        faults=faults,
    )


def _pattern(i):
    return bytes((i * 37 + j) % 256 for j in range(CHUNK))


def run_kill_under_writes(seed):
    """Kill one replica holder mid-write-storm; returns the evidence."""
    cluster = fresh_cluster(seed=seed)
    client = cluster.client(1)
    outcome = {}

    def workload():
        region = yield from client.alloc("busy", REGION, replication=2)
        mapping = yield from client.map(region)
        outcome["initial_version"] = region.version
        victim = next(
            h for h in region.hosts
            if h not in (cluster.config.master_host, 1)
        )
        outcome["victim"] = victim
        errors = 0
        for i in range(REGION // CHUNK):
            if i == 8:
                cluster.kill_server(victim)
            try:
                yield from mapping.write(i * CHUNK, _pattern(i))
            except RStoreError:
                errors += 1
        outcome["errors"] = errors

    cluster.run_app(workload())
    # let the lease expire and the background repair drain
    cluster.run(until=cluster.sim.now + 2.0)

    reader = next(
        h for h in range(cluster.num_machines)
        if h not in (cluster.config.master_host, 1, outcome["victim"])
    )

    def read_back():
        mapping = yield from cluster.client(reader).map("busy")
        data = yield from mapping.read(0, REGION)
        return data

    outcome["data"] = cluster.run_app(read_back())
    outcome["region"] = cluster.master.regions["busy"]
    outcome["repair_log"] = list(cluster.master.repair.log)
    outcome["repaired"] = cluster.master.repair.repaired
    outcome["retries"] = client.retries
    outcome["end_time"] = cluster.sim.now
    return outcome


def test_killed_server_heals_without_app_errors():
    outcome = run_kill_under_writes(seed=7)
    region = outcome["region"]
    victim = outcome["victim"]

    assert outcome["errors"] == 0
    assert outcome["retries"] >= 1  # the crash was actually felt
    # healed: every stripe back at two copies, none on the dead server
    assert region.available
    assert all(s.replication == 2 for s in region.stripes)
    assert all(
        victim not in [r.host_id for r in s.replicas]
        for s in region.stripes
    )
    # promotion bumped once, repair at least once more
    assert region.version >= outcome["initial_version"] + 2
    assert outcome["repaired"] >= 1
    # every write is readable afterwards
    expected = b"".join(_pattern(i) for i in range(REGION // CHUNK))
    assert outcome["data"] == expected


def test_kill_scenario_is_deterministic_from_its_seed():
    first = run_kill_under_writes(seed=11)
    second = run_kill_under_writes(seed=11)
    assert first["victim"] == second["victim"]
    assert first["errors"] == second["errors"]
    assert first["retries"] == second["retries"]
    assert first["data"] == second["data"]
    assert first["repair_log"] == second["repair_log"]
    assert first["end_time"] == second["end_time"]
    assert first["region"].version == second["region"].version


def test_repaired_replica_matches_surviving_primary():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("quiet", REGION, replication=2)
        mapping = yield from client.map(region)
        for i in range(REGION // CHUNK):
            yield from mapping.write(i * CHUNK, _pattern(i))
        return region

    region = cluster.run_app(setup())
    victim = next(
        h for h in region.hosts if h not in (cluster.config.master_host, 1)
    )
    cluster.kill_server(victim)
    cluster.run(until=cluster.sim.now + 2.0)

    healed = cluster.master.regions["quiet"]
    assert all(s.replication == 2 for s in healed.stripes)
    for stripe in healed.stripes:
        views = []
        for replica in stripe.replicas:
            arena_mr = cluster.servers[replica.host_id].arena_mr
            offset = arena_mr.offset_of(replica.addr)
            views.append(arena_mr.buffer.read(offset, stripe.length))
        assert views[0] == views[1], f"stripe {stripe.index} diverged"
        # distinct live hosts hold the two copies
        hosts = [r.host_id for r in stripe.replicas]
        assert len(set(hosts)) == 2
        assert victim not in hosts


def test_repair_reports_the_timeline():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("observed", REGION, replication=2)
        return region

    region = cluster.run_app(setup())
    victim = next(
        h for h in region.hosts if h not in (cluster.config.master_host, 1)
    )
    cluster.kill_server(victim)
    cluster.run(until=cluster.sim.now + 2.0)

    master = cluster.master
    repair = master.repair
    assert all(s.replication == 2 for s in master.regions["observed"].stripes)
    assert repair.repaired >= 1 and repair.abandoned == 0
    # one full stripe pulled per lost copy, no more, no less
    copied = sum(c.value for c in
                 master.obs.metrics.series("master.repair_bytes"))
    assert copied == repair.repaired * 64 * KiB
    assert any("re-replicated" in msg for _t, msg in repair.log)


def test_transient_wire_faults_are_absorbed_by_retry():
    faults = FaultInjector(seed=5)
    # the first two data-path launches from host 1 inside the window
    # fail with a completion error (QP goes to ERROR, like real RC)
    faults.fail_wire(1, start=0.0, duration=10.0, times=2)
    cluster = fresh_cluster(faults=faults)
    client = cluster.client(1)

    def app():
        region = yield from client.alloc("bumpy", 64 * KiB, replication=2)
        mapping = yield from client.map(region)
        yield from mapping.write(0, b"despite the weather")
        data = yield from mapping.read(0, 19)
        return data

    assert cluster.run_app(app()) == b"despite the weather"
    assert cluster.faults.injected["wire"] == 2
    assert client.retries >= 1


def test_losing_two_servers_heals_as_long_as_one_copy_survives():
    cluster = fresh_cluster(machines=6)
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("tough", REGION, replication=2)
        mapping = yield from client.map(region)
        yield from mapping.write(0, b"still here")
        return region

    region = cluster.run_app(setup())
    victims = [
        h for h in region.hosts if h not in (cluster.config.master_host, 1)
    ][:2]
    cluster.kill_server(victims[0])
    cluster.run(until=cluster.sim.now + 1.5)
    cluster.kill_server(victims[1])
    cluster.run(until=cluster.sim.now + 1.5)

    healed = cluster.master.regions["tough"]
    assert healed.available
    assert all(s.replication == 2 for s in healed.stripes)
    for stripe in healed.stripes:
        assert not any(
            r.host_id in victims for r in stripe.replicas
        )

    reader = next(
        h for h in range(cluster.num_machines)
        if h not in (cluster.config.master_host, 1) and h not in victims
    )

    def verify():
        mapping = yield from cluster.client(reader).map("tough")
        data = yield from mapping.read(0, 10)
        return data

    assert cluster.run_app(verify()) == b"still here"


def test_falsely_dead_server_rejoins_fenced_and_clients_ride_through():
    """Lease-expiry edge: heartbeats drop, the server is buried alive.

    The master promotes its replicas away and bumps the epoch; when the
    heartbeats resume the server re-registers *fresh* — recycled arena,
    fence at the new epoch.  A client still holding the pre-death
    mapping fans its next write at the rejoined server with an
    old-epoch stamp: the NIC NAKs it (``StaleEpochError`` under the
    hood), the client remaps immediately and the write lands — one
    fenced retry, zero application errors.
    """
    faults = FaultInjector(seed=13)
    cluster = fresh_cluster(seed=13, faults=faults)
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("fenced", REGION, replication=2)
        mapping = yield from client.map(region)
        yield from mapping.write(0, _pattern(0))
        return region, mapping

    region, mapping = cluster.run_app(setup())
    victim = next(
        h for h in region.hosts if h not in (cluster.config.master_host, 1)
    )
    # window times count from attach: schedule the drop for "now"
    now_rel = cluster.sim.now - cluster.boot_time
    faults.drop_heartbeats(victim, start=now_rel, duration=0.2)
    # lease (0.07) expires inside the window; the drop outlives it, the
    # first heartbeat after the window triggers the fresh re-register
    cluster.run(until=cluster.sim.now + 0.4)
    assert cluster.faults.injected["heartbeats"] > 0
    slot = cluster.master.allocator.get_server(victim)
    assert slot is not None and slot.alive, "the victim never rejoined"
    assert cluster.master.epoch >= 1  # the false death bumped the fence
    assert cluster.servers[victim].nic.fence_for(0) == slot.epoch

    # aim at a stripe the STALE mapping still places on the victim —
    # that is the write whose old-epoch stamp must bounce off the fence
    victim_stripe = next(
        s for s in region.stripes
        if victim in [r.host_id for r in s.replicas]
    )
    offset = victim_stripe.index * 64 * KiB

    def write_through_the_fence():
        yield from mapping.write(offset, _pattern(1))
        head = yield from mapping.read(0, CHUNK)
        fenced = yield from mapping.read(offset, CHUNK)
        return head, fenced

    head, fenced = cluster.run_app(write_through_the_fence())
    assert head == _pattern(0)
    assert fenced == _pattern(1)
    assert client.retries_fenced >= 1, (
        "the write was never fenced — the stale mapping reached "
        "recycled bytes unchallenged"
    )
    healed = cluster.master.regions["fenced"]
    assert healed.available
    assert all(s.replication == 2 for s in healed.stripes)


def test_server_flapping_across_a_master_recovery():
    """Lease-expiry edge: a server goes silent just before the master
    crashes, misses the whole re-registration grace period, and only
    speaks up again after being declared a straggler.

    The restarted master buries it (epoch bump, promotion, repair);
    when the flapper finally reconnects it *asks* for the keep-my-arena
    rejoin — but the master has the last word and forces a fresh
    registration, so the flapper comes back wiped and fenced instead of
    resurrecting orphaned reservations.
    """
    faults = FaultInjector(seed=17)
    faults.crash_master(at=0.15, restart_after=0.05)
    cluster = build_cluster(
        num_machines=5,
        config=RStoreConfig(stripe_size=64 * KiB, heartbeat_interval_s=0.02,
                            lease_timeout_s=0.07, recovery_grace_s=0.1,
                            seed=17),
        server_capacity=64 * MiB,
        faults=faults,
    )
    client = cluster.client(1)

    def setup():
        region = yield from client.alloc("flap", REGION, replication=2)
        mapping = yield from client.map(region)
        yield from mapping.write(0, b"ride the flap")
        return region

    region = cluster.run_app(setup())
    victim = next(
        h for h in region.hosts if h not in (cluster.config.master_host, 1)
    )
    # silent from just before the crash until well past the grace
    # period: the victim never notices the master died (no channel
    # error — its heartbeats are silently swallowed), so it cannot
    # re-register inside the recovery window
    now_rel = cluster.sim.now - cluster.boot_time
    faults.drop_heartbeats(victim, start=now_rel, duration=0.45 - now_rel)
    cluster.run(until=cluster.boot_time + 1.5)

    assert faults.injected["master_crashes"] == 1
    master = cluster.master
    assert master.alive and not master.recovering
    # recovery bumped the epoch once, the straggler burial again
    assert master.epoch >= 2
    slot = master.allocator.get_server(victim)
    assert slot is not None and slot.alive, "the flapper never came back"
    # forced-fresh: the flapper is fenced at its burial-or-later epoch,
    # and its recycled arena donates full capacity again
    assert slot.epoch >= 2
    assert cluster.servers[victim].nic.fence_for(0) == slot.epoch
    assert slot.arena.free_bytes == slot.capacity

    healed = master.regions["flap"]
    assert healed.available
    assert all(s.replication == 2 for s in healed.stripes)

    def verify():
        mapping = yield from cluster.client(3).map("flap")
        data = yield from mapping.read(0, 13)
        return data

    assert cluster.run_app(verify()) == b"ride the flap"


def test_a_repair_made_moot_mid_copy_returns_its_target_reservation():
    """The region is freed while a repair copy is in flight: the
    re-validation finds no stripe left, and the rollback must still
    hand back both the allocator's capacity and the target server's
    arena reservation."""
    cluster = build_cluster(
        num_machines=5,
        config=RStoreConfig(stripe_size=1 * MiB, heartbeat_interval_s=0.02,
                            lease_timeout_s=0.07, seed=7),
        server_capacity=64 * MiB,
    )
    client = cluster.client(1)

    def setup():
        yield from client.alloc("doomed", 4 * MiB, replication=2)

    cluster.run_app(setup())
    cluster.kill_server(2)
    repair = cluster.master.repair
    while not any("queued repair" in msg for _t, msg in repair.log):
        cluster.run(until=cluster.sim.now + 1e-4)
    # the copies are in flight: free the region under them
    cluster.run(until=cluster.sim.now + 1e-4)
    cluster.run_app(client.free("doomed"))
    cluster.run(until=cluster.sim.now + 1.0)

    assert not any("NoneType" in msg for _t, msg in repair.log)
    for slot in cluster.master.allocator.alive_servers:
        assert slot.free == slot.capacity, f"server {slot.host_id} leaked"
        assert live_allocations(slot.arena) == 0
