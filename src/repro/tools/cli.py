"""The ``python -m repro`` command line.

Sub-commands give a downstream user one-line access to the headline
scenarios without writing simulation code:

* ``info``                — model constants and defaults in use
* ``bandwidth``           — aggregate-bandwidth sweep (E3 shape)
* ``latency``             — data-path latency probe (E2 shape)
* ``pagerank``            — graph framework vs message passing (E5 shape)
* ``sort``                — RSort vs TeraSort pipeline (E7 shape)
* ``kv``                  — the one-sided KV table vs a sockets KV
* ``txn``                 — contended OCC transfers (E14 shape)
* ``stats``               — traced run: per-layer latency + call census
* ``trace``               — traced run: the raw span timeline
* ``lint``                — repro-lint: the static rules RL001-RL012

All numbers printed are simulated time/throughput.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.rdma.device import NicModel
from repro.simnet.config import GiB, KiB, MiB, NetworkConfig, us
from repro.tools import lint

__all__ = ["main"]


def _build(machines: int, stripe_kib: int, capacity_mib: int,
           shards: int = 1):
    return build_cluster(
        num_machines=machines,
        config=RStoreConfig(stripe_size=stripe_kib * KiB,
                            control_shards=shards),
        server_capacity=capacity_mib * MiB,
    )


def cmd_info(_args) -> int:
    print("model constants (see DESIGN.md for calibration):\n")
    for title, cfg in (
        ("NetworkConfig", NetworkConfig()),
        ("NicModel", NicModel()),
        ("RStoreConfig", RStoreConfig()),
    ):
        print(f"[{title}]")
        for field in dataclasses.fields(cfg):
            print(f"  {field.name} = {getattr(cfg, field.name)}")
        print()
    return 0


def cmd_bandwidth(args) -> int:
    cluster = _build(args.machines, stripe_kib=1024,
                     capacity_mib=args.machines * 64)
    sim = cluster.sim
    per_client = 16 * MiB
    region_size = args.machines * per_client
    moved = {"bytes": 0}

    def reader(host, desc):
        client = cluster.client(host)
        mapping = yield from client.map("bw")
        local = yield from client.alloc_local(region_size)

        def one(stripe):
            yield from mapping.read_into(
                local, local.addr + stripe.index * desc.stripe_size,
                stripe.index * desc.stripe_size, stripe.length,
                wire_scale=args.scale,
            )
            moved["bytes"] += stripe.length * args.scale

        procs = [sim.process(one(s)) for s in desc.stripes
                 if s.host_id != host]
        yield sim.all_of(procs)

    def app():
        desc = yield from cluster.client(0).alloc("bw", region_size)
        for host in range(args.machines):
            yield from cluster.client(host).map("bw")
        t0 = sim.now
        procs = [sim.process(reader(h, desc)) for h in range(args.machines)]
        yield sim.all_of(procs)
        return moved["bytes"] * 8 / (sim.now - t0)

    bps = cluster.run_app(app())
    print(f"machines={args.machines}  aggregate={bps / 1e9:.1f} Gb/s  "
          f"per-machine={bps / 1e9 / args.machines:.1f} Gb/s")
    return 0


def cmd_latency(args) -> int:
    cluster = _build(3, stripe_kib=4096, capacity_mib=64)
    sim = cluster.sim
    client = cluster.client(1)

    def app():
        yield from client.alloc("lat", 2 * MiB, preferred_host=2)
        mapping = yield from client.map("lat")
        local = yield from client.alloc_local(2 * MiB)
        print(f"{'size (B)':>10}  {'read (us)':>10}  {'write (us)':>10}")
        for size in (8, 64, 512, 4096, 32768, 262144, 1048576):
            yield from mapping.read_into(local, local.addr, 0, size)
            t0 = sim.now
            for _ in range(args.reps):
                yield from mapping.read_into(local, local.addr, 0, size)
            read_us = (sim.now - t0) / args.reps * 1e6
            t1 = sim.now
            for _ in range(args.reps):
                yield from mapping.write_from(local, local.addr, 0, size)
            write_us = (sim.now - t1) / args.reps * 1e6
            print(f"{size:>10}  {read_us:>10.2f}  {write_us:>10.2f}")

    cluster.run_app(app())
    return 0


def cmd_pagerank(args) -> int:
    import numpy as np

    from repro.graph import (
        MessagePassingEngine,
        PageRankProgram,
        RStoreGraphEngine,
    )
    from repro.graph.loader import Graph
    from repro.workloads.graphs import rmat_edges

    src, dst = rmat_edges(scale=args.scale, edge_factor=16, seed=42)
    graph = Graph.from_edges(1 << args.scale, src, dst)
    cluster = _build(args.machines, stripe_kib=512,
                     capacity_mib=max(256, (8 << args.scale) // MiB * 8))
    program = PageRankProgram(iterations=args.iterations)
    r = cluster.run_app(
        RStoreGraphEngine(cluster, graph, tag="cli").run(program)
    )
    m = cluster.run_app(
        MessagePassingEngine(cluster, graph, tag="cli-m").run(program)
    )
    assert np.allclose(r.values, m.values)
    print(f"graph: 2^{args.scale} vertices, {graph.num_edges} edges, "
          f"{args.machines} machines, {args.iterations} iterations")
    print(f"RStore framework : {r.elapsed * 1e3:9.2f} ms")
    print(f"message passing  : {m.elapsed * 1e3:9.2f} ms")
    print(f"speedup          : {m.elapsed / r.elapsed:9.2f}x")
    return 0


def cmd_sort(args) -> int:
    from repro.sort import RSort, TeraSortBaseline
    from repro.workloads.kv import RECORD_BYTES, is_sorted

    cluster = build_cluster(
        num_machines=args.machines,
        config=RStoreConfig(stripe_size=1 * MiB),
        server_capacity=64 * GiB,
    )
    real = args.machines * args.records * RECORD_BYTES
    scale = max(1, int(args.gigabytes * 1e9) // real)
    rsort = RSort(cluster, args.records, scale=scale, seed=3, tag="cli")
    r = cluster.run_app(rsort.run())
    assert is_sorted(cluster.run_app(rsort.collect_output()))
    tera = TeraSortBaseline(cluster, args.records, scale=scale, seed=3,
                            tag="cli-t")
    t = cluster.run_app(tera.run())
    print(f"sorting {rsort.logical_bytes / 1e9:.0f} GB (logical) on "
          f"{args.machines} machines")
    print(f"RSort         : {r.elapsed:8.1f} s "
          f"({r.throughput_Bps / 1e9:.2f} GB/s)")
    print(f"TeraSort-like : {t.elapsed:8.1f} s "
          f"({t.throughput_Bps / 1e9:.2f} GB/s)")
    print(f"ratio         : {t.elapsed / r.elapsed:8.1f}x")
    return 0


def cmd_kv(args) -> int:
    from repro.baselines import TcpKvClient, TcpKvServer
    from repro.kv import RKVStore

    cluster = _build(max(3, args.clients + 2), stripe_kib=256,
                     capacity_mib=64)
    sim = cluster.sim

    def worker(rank, host, name):
        view = yield from RKVStore.open(cluster.client(host), name)
        for i in range(args.ops):
            key = f"{rank}-{i % 25}".encode()
            if i % 10 == 0:
                yield from view.put(key, b"v" * 64)
            else:
                yield from view.get(key)

    def run_rstore():
        store = yield from RKVStore.create(cluster.client(1), "cli",
                                           slots=4096)
        yield from store.put(b"warm", b"x")
        t0 = sim.now
        procs = [
            sim.process(worker(r, 1 + r % (cluster.num_machines - 1), "cli"))
            for r in range(args.clients)
        ]
        yield sim.all_of(procs)
        return args.clients * args.ops / (sim.now - t0)

    rstore_ops = cluster.run_app(run_rstore())

    def tcp_worker(client):
        for i in range(args.ops):
            key = f"{client.host_id}-{i % 25}".encode()
            if i % 10 == 0:
                yield from client.put(key, b"v" * 64)
            else:
                yield from client.get(key)

    def run_tcp():
        server = TcpKvServer(cluster, host_id=0)
        clients = []
        for r in range(args.clients):
            host = 1 + r % (cluster.num_machines - 1)
            clients.append(
                (yield from TcpKvClient(cluster, host).connect(server))
            )
        t0 = sim.now
        procs = [sim.process(tcp_worker(c)) for c in clients]
        yield sim.all_of(procs)
        return args.clients * args.ops / (sim.now - t0)

    tcp_ops = cluster.run_app(run_tcp())
    print(f"{args.clients} clients, {args.ops} ops each (90/10 get/put):")
    print(f"RStore KV  : {rstore_ops / 1e3:8.1f} kops/s")
    print(f"sockets KV : {tcp_ops / 1e3:8.1f} kops/s")
    print(f"speedup    : {rstore_ops / tcp_ops:8.2f}x")
    return 0


def cmd_txn(args) -> int:
    import random as _random

    from repro.kv import RKVStore
    from repro.obs import obs_for
    from repro.obs.report import format_counters

    cluster = _build(max(3, args.clients + 1), stripe_kib=64,
                     capacity_mib=64)
    sim = cluster.sim
    obs = obs_for(sim)
    keys = [f"acct-{i:03d}".encode() for i in range(args.accounts)]
    opening = 1000

    def worker(rank, host):
        rng = _random.Random(1234 + rank)
        view = yield from RKVStore.open(cluster.client(host), "bank")
        runtime = view.txn(label=f"cli-{rank}")
        for _ in range(args.transfers):
            src, dst = rng.sample(keys, 2)
            amount = rng.randint(1, 50)

            def transfer(txn, src=src, dst=dst, amount=amount):
                a = int((yield from txn.get(view, src)))
                b = int((yield from txn.get(view, dst)))
                yield from txn.put(view, src, str(a - amount).encode())
                yield from txn.put(view, dst, str(b + amount).encode())

            yield from runtime.run(transfer)
        return runtime

    def app():
        store = yield from RKVStore.create(cluster.client(1), "bank",
                                           slots=4 * args.accounts)
        for key in keys:
            yield from store.put(key, str(opening).encode())
        t0 = sim.now
        procs = [
            cluster.spawn(worker(r, 1 + r % (cluster.num_machines - 1)))
            for r in range(args.clients)
        ]
        yield sim.all_of(procs)
        elapsed = sim.now - t0
        total = 0
        for key in keys:
            total += int((yield from store.get(key)))
        return elapsed, total, [p.value for p in procs]

    elapsed, total, runtimes = cluster.run_app(app())
    commits = sum(rt.commits for rt in runtimes)
    print(f"{args.clients} clients x {args.transfers} two-key transfers "
          f"over {args.accounts} accounts:")
    print(f"throughput : {commits / elapsed / 1e3:8.1f} ktxn/s")
    latency = obs.metrics.merged("txn.commit_s").summary().scaled(1e6)
    print(f"commit     : p50 {latency.p50:.1f} µs, p95 {latency.p95:.1f} "
          f"µs, p99 {latency.p99:.1f} µs")
    print("\ntxn.* counters:")
    print(format_counters(obs.metrics, prefixes=("txn.",)))
    conserved = total == args.accounts * opening
    print(f"\nledger total = {total} "
          f"({'conserved' if conserved else 'LEAKED'})")
    return 0 if conserved else 1


def _traced_run(args):
    """One traced E13-shaped run: warm up, then batched steady reads.

    Two tenants (``acme``, ``globex``) each own a region, sharded over
    ``args.shards`` metadata shards.  Returns ``(cluster, obs,
    baseline)`` where *baseline* holds the post-warm-up census
    snapshots plus the warm-cache re-map RPC count, so the steady-state
    delta isolates the pure data path per shard, and ``kernel``: the
    ``(events, processes)`` the simulator spent on the steady state.
    """
    from repro.obs import obs_for
    from repro.obs.report import call_census, shard_census

    shards = max(1, getattr(args, "shards", 1))
    cluster = _build(args.machines, stripe_kib=64, capacity_mib=64,
                     shards=shards)
    obs = obs_for(cluster.sim)
    obs.tracer.enable()
    client = cluster.client(1)
    region = 2 * MiB
    window = max(1, args.window)
    names = ["acme/obs", "globex/obs"]

    def offset(i):
        return ((i * 37) % (region // (8 * KiB))) * 8 * KiB

    def kernel():
        return cluster.sim.events_processed, cluster.sim.processes_spawned

    def app():
        # -- setup (control path): alloc, map, connect, warm every QP
        mappings = []
        for name in names:
            yield from client.alloc(name, region)
            mapping = yield from client.map(name)
            for i in range(args.machines):
                yield from mapping.read(i * (region // args.machines), 8)
            mappings.append(mapping)
        baseline = {
            "census": call_census(obs.metrics),
            "shards": shard_census(obs.metrics),
        }
        # -- steady state (data path): batched one-sided reads spread
        # across both tenants' regions
        started = kernel()
        done = 0
        while done < args.ops:
            batch = client.batch()
            for i in range(done, min(done + window, args.ops)):
                yield from batch.read(mappings[i % len(mappings)],
                                      offset(i), args.op_bytes)
            yield from batch.flush()
            yield from batch.wait_all()
            done += window
        baseline["kernel"] = tuple(
            after - before for before, after in zip(started, kernel()))
        # -- warm-cache proof: re-mapping under a live lease must not
        # issue a single control RPC
        before = client.master_calls
        for name in names:
            yield from client.map(name)
        baseline["warm_map_rpcs"] = client.master_calls - before
        return baseline

    baseline = cluster.run_app(app())
    return cluster, obs, baseline


def cmd_stats(args) -> int:
    from repro.obs.report import (
        call_census,
        format_counters,
        format_table,
        layer_breakdown,
        shard_census,
        tenant_census,
    )

    _cluster, obs, baseline = _traced_run(args)
    print(f"traced run: {args.ops} reads of {args.op_bytes} B, "
          f"batch window {args.window}, {args.machines} machines, "
          f"{args.shards} control shard(s)\n")
    print(format_table(
        "data-path latency by layer (simulated µs)",
        ["layer", "n", "p50", "p95", "p99", "max"],
        layer_breakdown(obs.metrics),
    ))
    events, processes = baseline["kernel"]
    print(f"\nsimulator cost of the steady state: "
          f"{events / args.ops:.2f} kernel events/op, "
          f"{processes / args.ops:.3f} processes/op "
          f"({events} events, {processes} processes)")
    steady = call_census(obs.metrics, baseline=baseline["census"])
    print("\ncontrol vs data census (steady state, after warm-up):")
    for key, value in steady.items():
        print(f"  {key} = {value}")
    verdict = ("OK: zero steady-state master RPCs — the data path is "
               "fully one-sided" if steady["master_rpcs"] == 0 else
               "WARNING: the steady state touched the master")
    print(f"  -> {verdict}")

    per_shard = shard_census(obs.metrics, baseline=baseline["shards"])
    print("\nper-shard steady-state control RPCs:")
    print(format_table(
        "", ["shard", "rpcs"],
        [[str(s), str(n)] for s, n in per_shard.items()],
    ))
    warm = baseline["warm_map_rpcs"]
    warm_note = ("OK: leases served from the client cache" if warm == 0
                 else "WARNING: the cache missed under a live lease")
    print(f"  warm-cache re-map issued {warm} control RPC(s) — {warm_note}")

    tenants = tenant_census(obs.metrics)
    if tenants:
        print("\nper-tenant accounting:")
        print(format_table(
            "", ["tenant", "bytes", "quota_denied", "repair_bytes"],
            [[t, str(r["bytes"]), str(r["quota_denied"]),
              str(r["repair_bytes"])] for t, r in tenants.items()],
        ))
    print("\ncounters:")
    print(format_counters(obs.metrics))
    shards_quiet = all(n == 0 for n in per_shard.values())
    ok = steady["master_rpcs"] == 0 and shards_quiet and warm == 0
    return 0 if ok else 1


def cmd_trace(args) -> int:
    from repro.obs.report import trace_report

    _cluster, obs, _baseline = _traced_run(args)
    print(trace_report(obs.tracer, limit=args.limit))
    return 0


cmd_lint = lint.run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RStore reproduction: simulated-cluster demos",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the model constants in use")

    p = sub.add_parser("bandwidth", help="aggregate bandwidth sweep (E3)")
    p.add_argument("--machines", type=int, default=12)
    p.add_argument("--scale", type=int, default=16,
                   help="wire scale factor per byte")

    p = sub.add_parser("latency", help="data-path latency probe (E2)")
    p.add_argument("--reps", type=int, default=5)

    p = sub.add_parser("pagerank", help="graph engines race (E5)")
    p.add_argument("--machines", type=int, default=8)
    p.add_argument("--scale", type=int, default=15)
    p.add_argument("--iterations", type=int, default=10)

    p = sub.add_parser("sort", help="sorters race (E7)")
    p.add_argument("--machines", type=int, default=12)
    p.add_argument("--records", type=int, default=10_000,
                   help="real records per worker")
    p.add_argument("--gigabytes", type=float, default=64.0,
                   help="logical dataset size")

    p = sub.add_parser("kv", help="one-sided KV vs sockets KV (E10)")
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--ops", type=int, default=200)

    p = sub.add_parser("txn", help="contended OCC transactions (E14)")
    p.add_argument("--clients", type=int, default=3)
    p.add_argument("--accounts", type=int, default=32)
    p.add_argument("--transfers", type=int, default=40)

    for name, help_text in (
        ("stats", "traced run: latency breakdown + call census"),
        ("trace", "traced run: the raw span timeline"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--machines", type=int, default=4)
        p.add_argument("--ops", type=int, default=256)
        p.add_argument("--op-bytes", type=int, default=128)
        p.add_argument("--window", type=int, default=16,
                       help="ops per batched flush")
        p.add_argument("--shards", type=int, default=2,
                       help="metadata shards in the control plane")
        if name == "trace":
            p.add_argument("--limit", type=int, default=60,
                           help="spans to print")

    lint.add_arguments(sub.add_parser(
        "lint", help="repro-lint: repo invariant checks (RL001-RL012)"))

    args = parser.parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
