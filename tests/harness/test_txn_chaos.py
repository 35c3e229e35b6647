"""Chaos suite for the transactional dataplane: the bank invariant.

A seeded multi-client bank runs transfers through the OCC transaction
runtime while the fault schedule attacks everything around it — the
master crashes mid-run, a host is partitioned away, a wire drops
completions — and the ledger's total balance must be conserved:

* every transfer the runtime reports committed moved money atomically
  (no torn commits, no double-applies from replayed publishes);
* every abort rolled back completely (no lost intent locks, no
  half-written slots);
* the whole schedule replays bit-for-bit with the sanitizer on or off,
  and RSan sees the commit edges, not phantom races.

The seed prints first; re-run one schedule with ``--seed <n>``.
"""

import hashlib
import random

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.sanitize import rsan_for
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector


ACCOUNTS = 24
OPENING = 1000
TRANSFERS_PER_CLIENT = 25
CLIENT_HOSTS = (1, 2, 3)


def _keys():
    return [f"acct-{i:02d}".encode() for i in range(ACCOUNTS)]


def _bank_run(seed: int, sanitize: bool):
    """One full chaos schedule; returns everything worth comparing."""
    faults = FaultInjector(seed=seed)
    faults.crash_master(at=0.25, restart_after=0.1)
    faults.partition([[3], [0, 1, 2]], start=0.45, duration=0.3)
    faults.fail_wire(2, start=0.1, duration=1.0, probability=0.25, times=4)
    config = RStoreConfig(
        stripe_size=8 * KiB,
        sanitize=sanitize,
        control_deadline_s=0.3,
        recovery_grace_s=0.2,
    )
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=32 * MiB,
        faults=faults,
    )
    sim = cluster.sim
    keys = _keys()

    def worker(host):
        rng = random.Random(seed * 31 + host)
        view = yield from RKVStore.open(cluster.client(host), "ledger")
        runtime = view.txn(label=f"bank-{host}", retries=500)
        for _ in range(TRANSFERS_PER_CLIENT):
            src, dst = rng.sample(keys, 2)
            amount = rng.randint(1, 50)

            def transfer(txn, src=src, dst=dst, amount=amount):
                a = int((yield from txn.get(view, src)))
                b = int((yield from txn.get(view, dst)))
                yield from txn.put(view, src, str(a - amount).encode())
                yield from txn.put(view, dst, str(b + amount).encode())

            yield from runtime.run(transfer)
            yield sim.timeout(rng.uniform(0.005, 0.02))
        return runtime

    def app():
        store = yield from RKVStore.create(cluster.client(0), "ledger",
                                           slots=128)
        for key in keys:
            yield from store.put(key, str(OPENING).encode())
        procs = [cluster.spawn(worker(host)) for host in CLIENT_HOSTS]
        yield sim.all_of(procs)
        balances = []
        for key in keys:
            balances.append(int((yield from store.get(key))))
        runtimes = [p.value for p in procs]
        return balances, runtimes

    balances, runtimes = cluster.run_app(app())
    rsan = rsan_for(sim)
    digest = hashlib.sha256(
        ";".join(str(b) for b in balances).encode()
    ).hexdigest()
    return {
        "digest": digest,
        "balances": tuple(balances),
        "commits": tuple(rt.commits for rt in runtimes),
        "aborts": tuple(rt.aborts for rt in runtimes),
        "now": sim.now,
        "fault_log": tuple(faults.log),
        "injected_crashes": faults.injected["master_crashes"],
        "injected_partition": faults.injected["partition"],
        "races": list(rsan.races),
        "txn_commits": rsan.txn_commits,
        "txn_aborts": rsan.txn_aborts,
    }


def test_bank_transfers_conserve_balance_under_chaos(seed, sanitize):
    print(f"\ntxn chaos seed: {seed}"
          + (" (sanitized)" if sanitize else ""))
    run = _bank_run(seed, sanitize)

    assert sum(run["balances"]) == ACCOUNTS * OPENING, (
        f"seed {seed}: the ledger leaked money across the fault "
        f"schedule: {run['balances']}"
    )
    # every transfer the workers issued committed exactly once
    assert run["commits"] == tuple(
        TRANSFERS_PER_CLIENT for _ in CLIENT_HOSTS
    ), f"seed {seed}: lost or duplicated commits: {run['commits']}"
    # the schedule actually bit: the crash and the partition both fired
    assert run["injected_crashes"] == 1
    assert run["injected_partition"] > 0, (
        f"seed {seed}: the partition never ate a message — the bank "
        "finished before the window"
    )
    assert run["races"] == [], (
        f"seed {seed}: sanitizer reported races in a serializable "
        f"history: {run['races']}"
    )
    if sanitize:
        # RSan saw one commit edge per committed transaction
        assert run["txn_commits"] == sum(run["commits"])
        assert run["txn_aborts"] == sum(run["aborts"])


def test_txn_chaos_is_bit_identical_with_sanitizer(seed):
    print(f"\ntxn chaos seed: {seed}")
    plain = _bank_run(seed, sanitize=False)
    sanitized = _bank_run(seed, sanitize=True)
    for field in ("digest", "balances", "commits", "aborts", "now",
                  "fault_log"):
        assert plain[field] == sanitized[field], (
            f"seed {seed}: RSan changed the bank schedule's "
            f"{field}: {plain[field]!r} != {sanitized[field]!r}"
        )
