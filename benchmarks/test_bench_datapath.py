"""E17 — Data-path crossover: one-sided vs server-op vs remote-fetch.

The adaptive data path's pitch is that no single substrate wins
everywhere.  This bench maps the crossover on a hash table whose probe
chains deepen with key popularity: keys are inserted in *reverse*
popularity order, so the hottest keys arrive last, land at the end of
long chains — and the second-hottest key overflows its probe window
entirely, turning the hottest part of the workload into negative
lookups (the adversarial case for client-driven probing, which must
READ the full slot at every hop to learn it missed).

The grid sweeps value size x zipfian theta for all four path policies
and clocks the mean simulated get latency.  The regimes the cost model
predicts, and this table must reproduce:

* **server_op** wins small values: one ~4.5us RPC replaces an
  L-deep chain of READ+validate round trips, and the pickled reply is
  cheap to copy at 64B.
* **one_sided** wins large values on shallow chains (theta=0): the
  value rides NIC DMA with no CPU copy at either end, while both
  server-side paths pay per-byte CPU to move the reply.
* **remote_fetch** wins large values on deep/hot chains: the server
  walks the chain header-only and the result still comes back over a
  one-sided READ of the deposit buffer — it dodges one-sided's
  per-hop full-slot READs *and* server-op's channel copy.
* **adaptive** must sit within 10% of the per-cell best everywhere.

A second table sweeps counter-burst length: a single FAA beats an RPC,
a burst of eight amortizes one RPC over eight remote FAA round trips.
"""

from repro.cluster import build_cluster
from repro.coord.counter import AtomicCounter
from repro.core import RStoreConfig
from repro.datapath import PathPolicy
from repro.kv.hashkv import RKVStore
from repro.simnet.config import KiB, MiB
from repro.workloads.access import zipfian_keys

from benchmarks.conftest import fmt_us, no_setup, print_table

VALUE_SIZES = [64, 8 * KiB, 32 * KiB]
THETAS = [0.0, 0.9, 1.2]
POLICIES = list(PathPolicy.POLICIES)

SLOTS = 272           # load 0.735: deep chains, one hot-key overflow
KEYS = 200
WARM_GETS = 100       # distribution-matched warm-up (selector settles)
GETS = 150            # measured zipfian lookups
BURST_SIZES = [1, 2, 4, 8]
BURSTS = 30
SEED = 7


def _config():
    return RStoreConfig(stripe_size=64 * KiB)


def run_get_cell(policy: str, value_size: int, theta: float) -> dict:
    cluster = build_cluster(num_machines=4, config=_config(),
                            server_capacity=512 * MiB)
    sim = cluster.sim
    out = {"policy": policy, "value_size": value_size, "theta": theta}

    def app():
        writer = cluster.client(1)
        store = yield from RKVStore.create(writer, "xover", slots=SLOTS,
                                           key_size=16,
                                           value_size=value_size)
        # reverse-popularity insertion: the hottest keys arrive last,
        # at the end of the longest chains; whatever overflows the
        # probe window stays absent and is served as a negative lookup
        absent = 0
        for i in reversed(range(KEYS)):
            try:
                yield from store.put(b"k%05d" % i, b"v" * value_size)
            except Exception:
                absent += 1
        reader = yield from RKVStore.open(cluster.client(2), "xover",
                                          path_policy=policy)
        # warm-up: touch every key once (the open connected every
        # path already), then run the measured distribution so the
        # adaptive selector meets the regime before the clock starts
        for i in range(KEYS):
            yield from reader.get(b"k%05d" % i)
        for idx in zipfian_keys(WARM_GETS, KEYS, theta=theta,
                                seed=SEED + 1):
            yield from reader.get(b"k%05d" % idx)

        draws = zipfian_keys(GETS, KEYS, theta=theta, seed=SEED)
        hits = 0
        with no_setup(reader.client):
            t0 = sim.now
            for idx in draws:
                value = yield from reader.get(b"k%05d" % idx)
                hits += value is not None
            elapsed = sim.now - t0
        out["latency_s"] = elapsed / GETS
        out["gets_per_s"] = GETS / elapsed
        out["hit_rate"] = hits / GETS
        out["absent_keys"] = absent

    cluster.run_app(app())
    return out


def run_burst_row(burst: int) -> dict:
    row = {"burst": burst}
    for policy in (PathPolicy.ONE_SIDED, PathPolicy.SERVER_OP):
        cluster = build_cluster(num_machines=4, config=_config(),
                                server_capacity=512 * MiB)
        sim = cluster.sim
        out = {}

        def app():
            client = cluster.client(1)
            ctr = yield from AtomicCounter.create(client, "e17",
                                                  path_policy=policy)
            deltas = list(range(1, burst + 1))
            yield from ctr.add_burst(deltas)  # warm-up
            with no_setup(client):
                t0 = sim.now
                for _ in range(BURSTS):
                    yield from ctr.add_burst(deltas)
                out["latency_s"] = (sim.now - t0) / BURSTS

        cluster.run_app(app())
        row[policy] = out["latency_s"]
    return row


def run_experiment():
    cells = [
        run_get_cell(policy, value_size, theta)
        for value_size in VALUE_SIZES
        for theta in THETAS
        for policy in POLICIES
    ]
    bursts = [run_burst_row(burst) for burst in BURST_SIZES]
    return {"cells": cells, "bursts": bursts}


def _fold(cells: list) -> list:
    """One row per (value_size, theta) with all four policies inline."""
    rows: dict = {}
    for cell in cells:
        row = rows.setdefault(
            (cell["value_size"], cell["theta"]),
            {"value_size": cell["value_size"], "theta": cell["theta"],
             "hit_rate": cell["hit_rate"]},
        )
        row[cell["policy"]] = cell["latency_s"]
        row[f"{cell['policy']}_gets_per_s"] = cell["gets_per_s"]
    folded = []
    for row in rows.values():
        explicit = {m: row[m] for m in PathPolicy.MODES}
        row["winner"] = min(explicit, key=explicit.get)
        row["adaptive_ratio"] = row["adaptive"] / explicit[row["winner"]]
        folded.append(row)
    return folded


def test_e17_datapath_crossover(benchmark):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = _fold(results["cells"])
    print_table(
        benchmark,
        f"E17: data-path crossover — {GETS} zipfian gets, "
        f"{KEYS} keys in {SLOTS} slots (reverse-popularity insert)",
        ["value", "theta", "one-sided (us)", "server-op (us)",
         "remote-fetch (us)", "adaptive (us)", "winner", "adp/best"],
        [
            [r["value_size"], r["theta"], fmt_us(r["one_sided"]),
             fmt_us(r["server_op"]), fmt_us(r["remote_fetch"]),
             fmt_us(r["adaptive"]), r["winner"],
             f"{r['adaptive_ratio']:.3f}"]
            for r in rows
        ],
    )
    print_table(
        benchmark,
        f"E17b: counter bursts — {BURSTS} bursts per point",
        ["burst", "one-sided (us)", "server-op (us)", "winner"],
        [
            [b["burst"], fmt_us(b["one_sided"]), fmt_us(b["server_op"]),
             min(("one_sided", "server_op"), key=b.get)]
            for b in results["bursts"]
        ],
    )
    benchmark.extra_info.update(rows=rows, bursts=results["bursts"])

    # -- the crossover is real: every substrate owns at least one regime
    winners = {r["winner"] for r in rows}
    assert winners == set(PathPolicy.MODES), (
        f"expected every mode to win somewhere, winners: {sorted(winners)}"
    )
    # small values: the single RPC beats the probe-chain conversation
    # in every theta regime
    for r in rows:
        if r["value_size"] == 64:
            assert r["winner"] == "server_op", r
    # large values, uniform access: shallow chains + DMA-ridden payload
    # keep the classic one-sided path on top
    # large values, hot skew: header-only server probing + one-sided
    # pickup dodges both per-hop READs and the channel copy
    by_cell = {(r["value_size"], r["theta"]): r for r in rows}
    assert by_cell[(32 * KiB, 0.0)]["winner"] == "one_sided"
    assert by_cell[(32 * KiB, 1.2)]["winner"] == "remote_fetch"
    # the adaptive policy tracks the per-regime best within 10%
    for r in rows:
        assert r["adaptive_ratio"] <= 1.10, (
            f"adaptive {r['adaptive_ratio']:.3f}x off best at "
            f"value={r['value_size']} theta={r['theta']}"
        )
    # bursts: a lone FAA beats an RPC; eight FAAs lose to one RPC
    by_burst = {b["burst"]: b for b in results["bursts"]}
    assert by_burst[1]["one_sided"] < by_burst[1]["server_op"]
    assert by_burst[8]["server_op"] < by_burst[8]["one_sided"]
