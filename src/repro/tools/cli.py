"""The ``python -m repro`` command line.

Only the commands that exist nowhere else:

* ``info``                — model constants and defaults in use
* ``stats``               — traced run: per-layer latency + call census
* ``trace``               — traced run: the raw span timeline
* ``lint``                — repro-lint: the static rules RL001-RL007,
  RL010-RL012

Each paper scenario has one home: its numbers in ``benchmarks/``
(``pytest benchmarks -k eN``), its demo in ``examples/``.  All numbers
printed are simulated time/throughput.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.rdma.device import NicModel
from repro.simnet.config import KiB, MiB, NetworkConfig
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


def build_parser() -> argparse.ArgumentParser:
    """The CLI: one subcommand per ``cmd_<name>`` function."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="RStore reproduction: model constants, traced runs, "
                    "repro-lint",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="print the model constants in use")

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
        "lint", help="repro-lint: repo invariant checks"))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
