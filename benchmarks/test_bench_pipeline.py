"""E13 — Batched small-op throughput on the asynchronous data path.

The paper's small-op numbers assume the client keeps the NIC busy; a
blocking API caps throughput at one op per round trip.  This experiment
issues the same stream of small reads through the sync API and through
:class:`IoBatch` at increasing batch depths on the default 4-server
topology.  Deeper batches overlap round trips and collapse doorbells
(one MMIO per flush per QP), so throughput climbs until the issue path,
not the wire, is the limit.  The NIC's ``doorbells_rung < ops_posted``
is the direct proof that doorbell batching carried the workload.
"""

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB

from benchmarks.conftest import print_table

_MACHINES = 4
_OPS = 256
_OP_BYTES = 128
_DEPTHS = (1, 2, 4, 8, 16, 32)
_REGION = 2 * MiB


def _offset(i: int) -> int:
    # stride the reads across every stripe (and so every server QP)
    return ((i * 37) % (_REGION // (8 * KiB))) * 8 * KiB


def run_experiment():
    cluster = build_cluster(
        num_machines=_MACHINES,
        config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB,
    )
    client = cluster.client(1)
    sim = cluster.sim
    out = {"rows": []}

    def setup():
        yield from client.alloc("e13", _REGION)
        mapping = yield from client.map("e13")
        yield from mapping.write(0, bytes(_REGION))
        return mapping

    mapping = cluster.run_app(setup())

    def sync_run():
        t0 = sim.now
        for i in range(_OPS):
            yield from mapping.read(_offset(i), _OP_BYTES)
        return _OPS / (sim.now - t0)

    out["sync_ops_per_s"] = cluster.run_app(sync_run())

    def batched_run(depth):
        bells0 = client.nic.doorbells_rung
        posted0 = client.nic.ops_posted
        t0 = sim.now
        i = 0
        while i < _OPS:
            batch = client.batch()
            for j in range(min(depth, _OPS - i)):
                yield from batch.read(mapping, _offset(i + j), _OP_BYTES)
            i += depth
            yield from batch.flush()
            yield from batch.wait_all()
        ops_per_s = _OPS / (sim.now - t0)
        return (ops_per_s, client.nic.doorbells_rung - bells0,
                client.nic.ops_posted - posted0)

    for depth in _DEPTHS:
        ops_per_s, doorbells, posted = cluster.run_app(batched_run(depth))
        out["rows"].append({
            "depth": depth,
            "ops_per_s": ops_per_s,
            "speedup": ops_per_s / out["sync_ops_per_s"],
            "doorbells": doorbells,
            "ops_posted": posted,
        })
    return out


def test_e13_batched_small_ops(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    sync = result["sync_ops_per_s"]
    print_table(
        benchmark,
        "E13: 128B read throughput vs batch depth (4 servers)",
        ["depth", "kops/s", "vs sync", "doorbells", "ops posted"],
        [["sync", f"{sync / 1e3:.0f}", "1.00x", "-", "-"]] + [
            [r["depth"], f"{r['ops_per_s'] / 1e3:.0f}",
             f"{r['speedup']:.2f}x", r["doorbells"], r["ops_posted"]]
            for r in result["rows"]
        ],
    )
    benchmark.extra_info["sync_ops_per_s"] = sync
    benchmark.extra_info["rows"] = result["rows"]
    by_depth = {r["depth"]: r for r in result["rows"]}
    # depth-1 batches add no pipelining, so they sit near the sync API
    assert by_depth[1]["speedup"] > 0.8
    # the headline: depth-32 batches beat the blocking API by >= 3x
    assert by_depth[32]["speedup"] >= 3.0
    # throughput grows monotonically-ish with depth
    assert by_depth[32]["ops_per_s"] > by_depth[4]["ops_per_s"]
    # doorbell batching really carried the ops: far fewer MMIOs than WRs
    assert by_depth[32]["doorbells"] < by_depth[32]["ops_posted"]
    assert by_depth[1]["doorbells"] == by_depth[1]["ops_posted"]
