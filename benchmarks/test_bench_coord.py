"""E12 — Coordination primitives on one-sided atomics.

Anchors the coordination subsystem's pitch: after a one-time control
setup, locks, barriers and counters run at data-path latency with zero
master RPCs and zero server CPU.  Three panels:

* lock acquire/release latency, uncontended vs under a 4-way storm
  (backoff keeps contended handoff within a small multiple);
* sense-barrier latency vs party count (one FAA + sense-word polling —
  grows gently, stays microseconds, no master involvement);
* FAA counter throughput vs client count (NIC-serialized increments on
  one hot word — the ceiling every primitive shares).
"""

from repro.cluster import build_cluster
from repro.coord import AtomicCounter, RemoteLock, SenseBarrier
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB

from benchmarks.conftest import fmt_us, note, print_table

_MACHINES = 17  # host 0 for the master + up to 16 coordinating clients
_LOCK_ROUNDS = 40
_BARRIER_ROUNDS = 20
_FAA_OPS = 200


def build():
    return build_cluster(
        num_machines=_MACHINES,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=16 * MiB,
    )


def lock_latency(cluster):
    """Mean acquire+release time, alone and under a 4-way storm."""
    sim = cluster.sim
    out = {}

    cluster.run_app(RemoteLock.create(cluster.client(1), "bench"))

    def solo():
        lock = yield from RemoteLock.open(cluster.client(1), "bench")
        t0 = sim.now
        for _ in range(_LOCK_ROUNDS):
            yield from lock.acquire()
            yield from lock.release()
        out["uncontended_s"] = (sim.now - t0) / _LOCK_ROUNDS

    cluster.run_app(solo())

    def storm(host):
        lock = yield from RemoteLock.open(cluster.client(host), "bench")
        for _ in range(_LOCK_ROUNDS):
            yield from lock.acquire()
            yield sim.timeout(1e-6)  # a tiny critical section
            yield from lock.release()
        return lock

    def contended():
        t0 = sim.now
        procs = [cluster.spawn(storm(h)) for h in range(1, 5)]
        yield sim.all_of(procs)
        elapsed = sim.now - t0
        out["contended_s"] = elapsed / (4 * _LOCK_ROUNDS)
        out["contended_cas"] = sum(
            p.value.contended for p in procs
        )

    cluster.run_app(contended())
    return out


def barrier_latency(cluster, parties):
    """Mean per-round barrier cost with *parties* synchronized clients."""
    sim = cluster.sim
    tag = f"bench-{parties}"

    cluster.run_app(
        SenseBarrier.create(cluster.client(1), tag, parties=parties))
    out = {}

    def party(host):
        barrier = yield from SenseBarrier.open(
            cluster.client(host), tag, parties=parties
        )
        for _ in range(_BARRIER_ROUNDS):
            yield from barrier.wait()

    def app():
        t0 = sim.now
        procs = [
            cluster.spawn(party(1 + i)) for i in range(parties)
        ]
        yield sim.all_of(procs)
        out["per_round_s"] = (sim.now - t0) / _BARRIER_ROUNDS

    cluster.run_app(app())
    return out["per_round_s"]


def faa_throughput(cluster, clients):
    """Aggregate increments/s with *clients* hammering one counter."""
    sim = cluster.sim
    tag = f"faa-{clients}"

    cluster.run_app(AtomicCounter.create(cluster.client(1), tag))
    out = {}

    def hammer(host):
        counter = yield from AtomicCounter.open(cluster.client(host), tag)
        for _ in range(_FAA_OPS):
            yield from counter.increment()

    def app():
        t0 = sim.now
        procs = [cluster.spawn(hammer(1 + i)) for i in range(clients)]
        yield sim.all_of(procs)
        elapsed = sim.now - t0
        check = yield from AtomicCounter.open(cluster.client(1), tag)
        total = yield from check.read()
        assert total == clients * _FAA_OPS  # exact, even at full contention
        out["ops_per_s"] = clients * _FAA_OPS / elapsed

    cluster.run_app(app())
    return out["ops_per_s"]


def run_experiment():
    cluster = build()
    result = {
        "lock": lock_latency(cluster),
        "barrier_rows": [],
        "faa_rows": [],
    }
    for parties in (2, 4, 8, 16):
        result["barrier_rows"].append(
            [parties, barrier_latency(cluster, parties)]
        )
    for clients in (1, 2, 4, 8, 16):
        result["faa_rows"].append([clients, faa_throughput(cluster, clients)])
    return result


def test_e12_coordination(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    lock = result["lock"]
    print_table(
        benchmark,
        "E12a: remote lock acquire+release latency",
        ["mode", "per pair (us)"],
        [
            ["uncontended", fmt_us(lock["uncontended_s"])],
            ["4-way contended", fmt_us(lock["contended_s"])],
        ],
    )
    note(benchmark, f"contended CAS losses: {lock['contended_cas']}")
    print_table(
        benchmark,
        "E12b: sense-barrier latency vs parties",
        ["parties", "per round (us)"],
        [[p, fmt_us(s)] for p, s in result["barrier_rows"]],
    )
    print_table(
        benchmark,
        "E12c: FAA counter throughput vs clients (one hot word)",
        ["clients", "kops/s"],
        [[c, f"{ops / 1e3:.0f}"] for c, ops in result["faa_rows"]],
    )
    benchmark.extra_info["lock"] = lock
    benchmark.extra_info["barrier_rows"] = [
        {"parties": p, "per_round_s": s} for p, s in result["barrier_rows"]
    ]
    benchmark.extra_info["faa_rows"] = [
        {"clients": c, "ops_per_s": ops} for c, ops in result["faa_rows"]
    ]
    # an uncontended acquire+release is two CAS round trips — data-path
    # latency, nowhere near control-path (tens of) microseconds
    assert lock["uncontended_s"] < 20e-6
    # backoff keeps the contended handoff within a small multiple
    assert lock["contended_s"] < 12 * lock["uncontended_s"]
    # barrier cost grows gently with parties and stays microseconds
    rounds = dict(result["barrier_rows"])
    assert rounds[16] < 8 * rounds[2]
    assert rounds[16] < 100e-6
    # each client is latency-bound, so throughput climbs with client
    # count — but the hot word serializes at the hosting NIC's engine,
    # so 16 clients land measurably below 16x one client
    ops = dict(result["faa_rows"])
    assert ops[16] > 2 * ops[1]
    assert ops[16] < 14 * ops[1]
