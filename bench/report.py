"""Turn child results into the named metrics of ``BENCHMARK.json``.

Two clocks, named in every metric: ``sim_*`` is simulated time (the
paper's result, bit-deterministic for a fixed seed and op count);
``host_*`` and ``setup_s`` are what the simulator costs us, scaled by
the calibration kernel to the reference machine speed.
"""

from __future__ import annotations

import statistics

import stats


def _measured(rounds: list) -> dict:
    return {
        "ok": sum(r["ops"] - r["failed"] for r in rounds),
        "sim_s": sum(r["sim_s"] for r in rounds),
        "payload": sum(r["payload"] for r in rounds),
    }


def round_rates(result: dict) -> list:
    """Calibrated logical ops per host second, one value per round."""
    return [
        stats.calibrated_rate((r["ops"] - r["failed"]) / r["host_s"],
                              r["cal_before"], r["cal_after"],
                              result["calibration"])
        for r in result["rounds"]
    ]


def setup_seconds(result: dict) -> float:
    """Calibrated host seconds from child start to first measured op."""
    setup = result["setup"]
    return stats.calibrated_seconds(setup["raw_s"], setup["cal_before"],
                                    setup["cal_after"])


def end_to_end(full: dict, setups: list) -> dict:
    """The end-to-end metrics of one untraced run.

    *setups* are further set-up-only children of the same spec; the
    reported ``setup_s`` is the median over all of them and *full*.
    """
    total = _measured(full["rounds"])
    return {
        "sim_ops_per_s": total["ok"] / total["sim_s"],
        "sim_lat_iqm_us": full["latency"]["iqm_us"],
        "sim_lat_tail_us": full["latency"]["tail_us"],
        "sim_goodput_gbps": total["payload"] * 8 / total["sim_s"] / 1e9,
        "sim_setup_ms": full["setup"]["sim_ms"],
        "host_ops_per_s": stats.undisturbed_mean(round_rates(full)),
        "host_peak_rss_mb": full["peak_rss_mb"],
        "setup_s": statistics.median(
            setup_seconds(r) for r in [full, *setups]),
    }


def _per(count: float, ops: int, scale: float = 1.0) -> float:
    return scale * count / ops if ops else 0.0


def _hist(traced: dict, name: str, field: str, scale: float) -> float:
    hist = traced["histograms"].get(name)
    return hist[field] * scale if hist else 0.0


def per_layer(plain: dict, traced: dict, twin: dict | None) -> dict:
    """The per-layer metrics of one traced run.

    *plain* is the same round run untraced (its host time is the
    honest one), *traced* the round under the tracer and ``cProfile``,
    *twin* the unsanitized twin of a sanitized workload (or ``None``).
    Metrics that do not apply to a workload read 0.
    """
    total = _measured(traced["rounds"])
    ops = total["ok"]
    counters = traced["counters"]

    def count(name):
        return counters.get(name, 0)

    profile = traced["profile"]
    self_total = sum(layer["self_s"] for layer in profile["layers"].values())
    out = {}
    for name, layer in profile["layers"].items():
        out[f"{name}.host_self_share"] = layer["self_s"] / self_total
        out[f"{name}.py_calls_per_op"] = _per(layer["calls"], ops)

    plain_round = plain["rounds"][0]
    events = profile["events"]
    out["simnet.events_per_op"] = _per(events, ops)
    out["simnet.processes_per_op"] = _per(profile["processes"], ops)
    out["simnet.host_us_per_event"] = _per(plain_round["host_s"], events, 1e6)
    out["simnet.bare_events_per_s"] = stats.calibrated_rate(
        traced["bare_events_per_s"], traced["bare_cal"], traced["bare_cal"])
    out["simnet.wire_bytes_per_payload_byte"] = _per(
        traced["wire_bytes"], total["payload"])

    posted = count("rnic.ops_posted")
    out["rdma.wrs_per_op"] = _per(posted, ops)
    out["rdma.doorbells_per_wr"] = _per(count("rnic.doorbells_rung"), posted)
    out["rdma.sim_post_p50_us"] = _hist(traced, "span.data.qp.post",
                                        "p50", 1e6)
    out["rdma.sim_wire_p50_us"] = _hist(traced, "span.data.nic.wire",
                                        "p50", 1e6)
    out["rdma.buffer_alloc_ms_per_gib"] = traced["buffer_alloc_ms_per_gib"]
    out["rdma.bytes_copied_share"] = profile["memory_self_s"] / self_total

    for layer, span in (("submit", "client.submit"), ("flush", "batch.flush"),
                        ("cq", "cq.complete"), ("wait", "future.wait")):
        out[f"core.sim_{layer}_p50_us"] = _hist(
            traced, f"span.data.{span}", "p50", 1e6)
    master_calls = count("client.master_calls")
    out["core.steady_master_rpcs"] = master_calls
    out["core.retries_per_kop"] = _per(count("client.retries"), ops, 1e3)
    lookups = (count("client.metadata_cache_hits")
               + count("client.metadata_cache_misses"))
    out["core.meta_cache_hit_ratio"] = _per(
        count("client.metadata_cache_hits"), lookups)
    out["core.master_rpcs_per_cycle"] = _per(master_calls, ops)

    out["rpc.requests_per_op"] = _per(
        count("master.rpc_served") + count("datapath.server_ops"), ops)

    out["coord.seqlock_read_retries_per_kop"] = _per(
        count("coord.seqlock.read_retries"), ops, 1e3)
    out["coord.seqlock_lock_failures_per_kop"] = _per(
        count("coord.seqlock.lock_failures"), ops, 1e3)
    out["kv.read_retries_per_kop"] = _per(count("kv.read_retries"), ops, 1e3)
    out["kv.lock_retries_per_kop"] = _per(count("kv.lock_retries"), ops, 1e3)

    # the router counts a dp_exec round trip per call, busy redrives
    # included, and a remote fetch on top of the call that deposited it
    fetched = count("datapath.remote_fetches")
    server_ops = (count("datapath.server_ops")
                  - count("datapath.busy_retries") - fetched)
    out["datapath.mode_share_server_op"] = _per(server_ops, ops)
    out["datapath.mode_share_remote_fetch"] = _per(fetched, ops)
    out["datapath.mode_share_one_sided"] = max(
        0.0, 1.0 - _per(server_ops + fetched, ops))
    out["datapath.busy_retries_per_kop"] = _per(
        count("datapath.busy_retries"), ops, 1e3)
    out["datapath.fetch_bytes_per_op"] = _per(
        count("datapath.bytes_fetched"), ops)

    commits = count("txn.commits")
    out["txn.aborts_per_commit"] = _per(count("txn.aborts"), commits)
    out["txn.conflicts_per_commit"] = _per(count("txn.conflicts"), commits)
    out["txn.read_retries_per_commit"] = _per(
        count("txn.read_retries"), commits)
    out["txn.writes_per_commit"] = _hist(
        traced, "txn.writes_per_commit", "mean", 1.0)
    out["txn.sim_commit_p50_us"] = _hist(traced, "txn.commit_s", "p50", 1e6)
    out["txn.sim_commit_p99_us"] = _hist(traced, "txn.commit_s", "p99", 1e6)

    out["sanitize.races"] = traced["races"]
    out["sanitize.host_overhead_ratio"] = (
        round_rates(twin)[0] / round_rates(plain)[0] if twin else 0.0)

    spans = traced["spans"]
    out["obs.spans_per_op"] = _per(spans["recorded"] + spans["dropped"], ops)
    out["obs.spans_dropped"] = spans["dropped"]

    traced_round = traced["rounds"][0]
    out["bench.trace_overhead_ratio"] = (
        traced_round["host_s"] / plain_round["host_s"])
    out["bench.host_raw_ops_per_s"] = _per(
        plain_round["ops"] - plain_round["failed"], plain_round["host_s"])
    out["bench.calib_rate"] = (
        plain_round["cal_before"] + plain_round["cal_after"]) / 2.0
    out["bench.cpu_share"] = plain_round["cpu_s"] / plain_round["host_s"]
    for part in ("import", "build", "load"):
        out[f"bench.setup_{part}_s"] = plain["setup"][f"{part}_s"]
    return out
