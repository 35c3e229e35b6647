#!/usr/bin/env python
"""Multi-key bank transfers that survive a mid-commit master crash.

Three clients move money between 16 shared accounts through the OCC
transaction runtime (:mod:`repro.txn`) while the fault schedule does
its worst: the master crashes in the middle of the run and a flaky
wire drops completions under client 2.  Transactions are pure
data-plane — snapshot, validate, lock, publish are all one-sided
reads and CASes against server DRAM — so committed transfers keep
flowing straight through the control-plane outage, and every abort
rolls back completely.  Then one transaction closes an account: it
pays the balance out to another account and deletes the key.  At the
end the ledger still sums to exactly what it opened with: money moved,
none was minted or burned.

Run:  python examples/bank_transfer.py
"""

import random

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector

ACCOUNTS = 16
OPENING = 1000
TRANSFERS_PER_CLIENT = 20
CLIENT_HOSTS = (1, 2, 3)
CRASH_AT = 0.20     # seconds after boot: mid-workload
OUTAGE = 0.10       # master down-time


def main():
    faults = FaultInjector(seed=7)
    faults.crash_master(at=CRASH_AT, restart_after=OUTAGE)
    faults.fail_wire(2, start=0.05, duration=0.05, probability=1.0,
                     times=1)
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(
            stripe_size=8 * KiB,
            control_deadline_s=0.3,
            recovery_grace_s=0.2,
        ),
        server_capacity=32 * MiB,
        faults=faults,
    )
    sim = cluster.sim
    keys = [f"acct-{i:02d}".encode() for i in range(ACCOUNTS)]

    def stamp(message):
        print(f"[{sim.now * 1e3:8.2f} ms] {message}")

    def worker(host):
        rng = random.Random(host * 97)
        view = yield from RKVStore.open(cluster.client(host), "ledger")
        runtime = view.txn(label=f"bank-{host}", retries=500)
        crossed_outage = False
        for _ in range(TRANSFERS_PER_CLIENT):
            src, dst = rng.sample(keys, 2)
            amount = rng.randint(1, 50)

            def transfer(txn, src=src, dst=dst, amount=amount):
                a = int((yield from txn.get(view, src)))
                b = int((yield from txn.get(view, dst)))
                yield from txn.put(view, src, str(a - amount).encode())
                yield from txn.put(view, dst, str(b + amount).encode())

            yield from runtime.run(transfer)
            if not cluster.master.alive and not crossed_outage:
                crossed_outage = True
                stamp(f"client {host} committed transfer #"
                      f"{runtime.commits} while the master was DOWN")
            yield sim.timeout(rng.uniform(0.005, 0.02))
        return runtime

    def app():
        store = yield from RKVStore.create(cluster.client(0), "ledger",
                                           slots=64)
        for key in keys:
            yield from store.put(key, str(OPENING).encode())
        stamp(f"ledger opened: {ACCOUNTS} accounts x {OPENING}")

        procs = [cluster.spawn(worker(host)) for host in CLIENT_HOSTS]
        yield sim.all_of(procs)
        runtimes = [p.value for p in procs]
        stamp(f"all {len(procs)} clients done "
              f"(master alive again: {cluster.master.alive})")

        closed, heir = keys[-1], keys[0]

        def close(txn):
            rest = int((yield from txn.get(store, closed)))
            kept = int((yield from txn.get(store, heir)))
            yield from txn.put(store, heir, str(kept + rest).encode())
            yield from txn.delete(store, closed)
            return rest

        rest = yield from store.txn(label="close").run(close)
        assert (yield from store.get(closed)) is None
        stamp(f"closed {closed.decode()}: its {rest} paid out to "
              f"{heir.decode()}, the key deleted")

        balances = []
        for key in keys[:-1]:
            balances.append(int((yield from store.get(key))))
        return balances, runtimes

    balances, runtimes = cluster.run_app(app())

    commits = sum(rt.commits for rt in runtimes)
    aborts = sum(rt.aborts for rt in runtimes)
    assert commits == len(CLIENT_HOSTS) * TRANSFERS_PER_CLIENT
    assert faults.injected["master_crashes"] == 1
    assert faults.injected["wire"] >= 1
    print(f"fault schedule: {faults.injected['master_crashes']} master "
          f"crash, {faults.injected['wire']} wire fault(s) — all ridden "
          f"out")
    print(f"transactions: {commits} committed, {aborts} aborted & "
          f"retried (conflicts + faults)")

    total = sum(balances)
    # the closed account ends at 0, so its payout counts as moved
    moved = (sum(abs(b - OPENING) for b in balances) + OPENING) // 2
    assert total == ACCOUNTS * OPENING, (
        f"ledger leaked: {total} != {ACCOUNTS * OPENING}"
    )
    print(f"ledger total: {total} == {ACCOUNTS} x {OPENING} — "
          f"balance conserved ({moved} moved between accounts)")


if __name__ == "__main__":
    main()
