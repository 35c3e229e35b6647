"""E14 — OCC transactions vs naive 2PL under zipfian contention.

The transactional-dataplane study: four clients run a mixed workload
(70 % read-only four-key audits, 30 % two-key transfers) over one
shared 256-account table, with key popularity swept from uniform
(``theta = 0``) through YCSB-default skew (0.9) to pathological (1.2).
Both runners use the same SeqLock slots and the same token protocol —
they differ only in *when* they lock:

* **OCC** (:mod:`repro.txn`) — snapshot, validate, lock only the
  write-set at commit; conflicts abort and retry.
* **2PL** (:mod:`repro.baselines.twopl`) — lock every declared slot up
  front, hold across read + compute + write; audits lock too.

Storm's thesis (and this bench's acceptance bar): optimistic wins at
low-to-moderate contention because read-only work never locks; the
interesting story is how the gap narrows as skew concentrates writes
on a handful of hot slots.
"""

import random

from repro.baselines import TwoPhaseLocking
from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.simnet.config import KiB, MiB
from repro.workloads.access import zipfian_keys

from benchmarks.conftest import print_table

ACCOUNTS = 256
SLOTS = 1024
CLIENT_HOSTS = (1, 2, 3, 4)
TXNS_PER_CLIENT = 60
AUDIT_KEYS = 4
AUDIT_RATIO = 0.7       # the rest are two-key transfers
THETAS = [0.0, 0.9, 1.2]
OPENING = 1000
SEED = 2024


def _keys():
    return [f"acct-{i:03d}".encode() for i in range(ACCOUNTS)]


def _client_ops(theta: float, host: int):
    """One client's op sequence: (kind, keys) tuples, zipfian-skewed."""
    draws = iter(zipfian_keys(
        TXNS_PER_CLIENT * AUDIT_KEYS * 2, ACCOUNTS, theta=theta,
        seed=SEED + host,
    ))
    rng = random.Random(SEED * 7 + host)
    keys = _keys()
    ops = []
    for _ in range(TXNS_PER_CLIENT):
        want = AUDIT_KEYS if rng.random() < AUDIT_RATIO else 2
        picked = []
        for index in draws:
            if keys[index] not in picked:
                picked.append(keys[index])
            if len(picked) == want:
                break
        ops.append(("audit" if want == AUDIT_KEYS else "transfer", picked))
    return ops


def _build():
    cluster = build_cluster(
        num_machines=5,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )

    def setup():
        store = yield from RKVStore.create(cluster.client(0), "bank",
                                           slots=SLOTS)
        for key in _keys():
            yield from store.put(key, str(OPENING).encode())

    cluster.run_app(setup())
    return cluster


def _run_clients(cluster, worker):
    """Run one *worker* per client host; ``(elapsed, their results)``."""
    sim = cluster.sim

    def app():
        t0 = sim.now
        procs = [cluster.spawn(worker(host)) for host in CLIENT_HOSTS]
        yield sim.all_of(procs)
        return sim.now - t0, [p.value for p in procs]

    return cluster.run_app(app())


def run_occ(theta: float) -> dict:
    cluster = _build()

    def worker(host):
        view = yield from RKVStore.open(cluster.client(host), "bank")
        runtime = view.txn(label=f"occ-{host}")
        for kind, keys in _client_ops(theta, host):
            if kind == "audit":
                def audit(txn, keys=keys):
                    total = 0
                    for key in keys:
                        total += int((yield from txn.get(view, key)))
                    return total

                yield from runtime.run(audit)
            else:
                src, dst = keys

                def transfer(txn, src=src, dst=dst):
                    a = int((yield from txn.get(view, src)))
                    b = int((yield from txn.get(view, dst)))
                    yield from txn.put(view, src, str(a - 1).encode())
                    yield from txn.put(view, dst, str(b + 1).encode())

                yield from runtime.run(transfer)
        return runtime

    elapsed, runtimes = _run_clients(cluster, worker)
    commits = sum(rt.commits for rt in runtimes)
    aborts = sum(rt.aborts for rt in runtimes)
    assert commits == len(CLIENT_HOSTS) * TXNS_PER_CLIENT
    _assert_conserved(cluster)
    return {
        "system": "occ",
        "theta": theta,
        "elapsed_s": elapsed,
        "txn_per_s": commits / elapsed,
        "commits": commits,
        "aborts": aborts,
        "abort_rate": aborts / (commits + aborts) if commits else 1.0,
    }


def run_twopl(theta: float) -> dict:
    cluster = _build()

    def worker(host):
        view = yield from RKVStore.open(cluster.client(host), "bank")
        runner = TwoPhaseLocking(cluster.client(host), label=f"2pl-{host}")
        for kind, keys in _client_ops(theta, host):
            if kind == "audit":
                yield from runner.run(view, keys, lambda values: {})
            else:
                src, dst = keys

                def move(values, src=src, dst=dst):
                    return {
                        src: str(int(values[src]) - 1).encode(),
                        dst: str(int(values[dst]) + 1).encode(),
                    }

                yield from runner.run(view, keys, move)
        return runner

    elapsed, runners = _run_clients(cluster, worker)
    commits = sum(r.commits for r in runners)
    lock_waits = sum(int(r._m_lock_waits.value) for r in runners)
    assert commits == len(CLIENT_HOSTS) * TXNS_PER_CLIENT
    _assert_conserved(cluster)
    return {
        "system": "2pl",
        "theta": theta,
        "elapsed_s": elapsed,
        "txn_per_s": commits / elapsed,
        "commits": commits,
        "lock_waits": lock_waits,
    }


def _assert_conserved(cluster):
    def check():
        store = yield from RKVStore.open(cluster.client(0), "bank")
        total = 0
        for key in _keys():
            total += int((yield from store.get(key)))
        return total

    assert cluster.run_app(check()) == ACCOUNTS * OPENING, (
        "the workload leaked money — a commit tore"
    )


def run_experiment():
    rows = []
    for theta in THETAS:
        rows.append(run_occ(theta))
        rows.append(run_twopl(theta))
    return rows


def test_e14_occ_vs_twopl_contention(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    by_key = {(r["system"], r["theta"]): r for r in rows}
    table = []
    for theta in THETAS:
        occ = by_key[("occ", theta)]
        twopl = by_key[("2pl", theta)]
        table.append([
            f"{theta:.1f}",
            f"{occ['txn_per_s'] / 1e3:.1f}",
            f"{occ['abort_rate'] * 100:.1f}%",
            f"{twopl['txn_per_s'] / 1e3:.1f}",
            twopl["lock_waits"],
            f"{occ['txn_per_s'] / twopl['txn_per_s']:.2f}x",
        ])
    print_table(
        benchmark,
        "E14: OCC vs naive 2PL, 70/30 audit/transfer mix, 4 clients",
        ["theta", "OCC ktxn/s", "OCC aborts", "2PL ktxn/s", "2PL lock waits",
         "OCC/2PL"],
        table,
    )
    benchmark.extra_info["rows"] = rows

    # the acceptance bar: optimistic beats pessimistic at low-to-
    # moderate contention (uniform and YCSB-default skew)
    for theta in (0.0, 0.9):
        occ = by_key[("occ", theta)]
        twopl = by_key[("2pl", theta)]
        assert occ["txn_per_s"] > twopl["txn_per_s"], (
            f"theta={theta}: OCC ({occ['txn_per_s']:.0f} txn/s) did not "
            f"beat 2PL ({twopl['txn_per_s']:.0f} txn/s)"
        )
