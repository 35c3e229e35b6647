"""One workload in one fresh process: set up, measure, check, report.

``run.py`` starts this file once per measurement with a JSON spec on
the command line and reads one JSON object from the last line of its
standard output.  Single process, single thread; the parent pins
``PYTHONHASHSEED`` so set and dict iteration cannot differ between
two runs of the same seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import struct
import sys
import time
from array import array

from calib import calibrate

_DOUBLE = struct.Struct("<d")


def _counter_totals(metrics) -> dict:
    """Every counter of the registry, summed across label sets."""
    from repro.obs import Counter

    totals: dict = {}
    for inst in metrics:
        if isinstance(inst, Counter):
            totals[inst.name] = totals.get(inst.name, 0) + inst.value
    return totals


def _histogram(metrics, name: str):
    """``{count, mean, p50, p99}`` of a merged histogram, or ``None``."""
    try:
        hist = metrics.merged(name)
    except KeyError:
        return None
    if not hist.count:
        return None
    return {"count": hist.count, "mean": hist.mean,
            "p50": hist.percentile(50), "p99": hist.percentile(99)}


def _fold_round(digest, result, network_bytes: int) -> None:
    digest.update(struct.pack("<qqqd", result.ops, result.failed,
                              result.payload, result.sim_s))
    digest.update(struct.pack("<q", network_bytes))
    digest.update(array("d", result.samples).tobytes())


def _timed_alloc_ms_per_gib(workload, nbytes: int) -> float:
    """Host cost of registering a fresh local buffer, per GiB."""
    client = workload.client(0)
    start = time.perf_counter()
    workload.cluster.run_app(client.alloc_local(nbytes))
    return (time.perf_counter() - start) * 1e3 * (2 ** 30 / nbytes)


def _bare_events_per_s(events: int = 200_000) -> float:
    """Bare ``timeout`` events per host second on a standalone kernel."""
    from repro.simnet.kernel import Simulator

    sim = Simulator()

    def ticker():
        for _ in range(events):
            yield sim.timeout(1e-6)

    start = time.perf_counter()
    sim.run(until=sim.process(ticker()))
    return events / (time.perf_counter() - start)


def _traced_extras(workload, obs, profiler) -> dict:
    """What only the traced run records: the profile folded by layer,
    span counts and histograms, and two stand-alone host probes."""
    import pstats
    from pathlib import Path

    import repro
    import stats

    bench_root = str(Path(__file__).resolve().parent)
    src_root = str(Path(repro.__file__).resolve().parent)
    rows = pstats.Stats(profiler).stats
    return {
        "profile": {
            "layers": stats.fold_profile(rows, src_root, bench_root),
            "events": stats.calls_of(rows, "simnet/kernel.py", "step"),
            "processes": stats.calls_of(rows, "simnet/kernel.py", "process"),
            "memory_self_s": stats.self_seconds(rows, "rdma/memory.py"),
        },
        "spans": {
            "recorded": len(obs.tracer.spans),
            "dropped": obs.tracer.dropped,
        },
        "histograms": {
            hist: _histogram(obs.metrics, hist)
            for hist in (
                "span.data.qp.post", "span.data.nic.wire",
                "span.data.client.submit", "span.data.batch.flush",
                "span.data.cq.complete", "span.data.future.wait",
                "txn.commit_s", "txn.writes_per_commit",
            )
        },
        "bare_events_per_s": _bare_events_per_s(),
        "buffer_alloc_ms_per_gib": _timed_alloc_ms_per_gib(
            workload, 64 * 2 ** 20),
        "bare_cal": calibrate(),
    }


def run(spec: dict) -> dict:
    name, seed = spec["workload"], spec["seed"]
    rounds, traced = spec["rounds"], spec["traced"]

    cal_before = calibrate()
    started = time.perf_counter()
    import stats
    import workloads
    from repro.obs import obs_for
    from repro.sanitize import rsan_for
    imported = time.perf_counter()

    workload = workloads.WORKLOADS[name](seed, spec["ops_per_round"])
    workload.build()
    built = time.perf_counter()
    workload.prepare(rounds)
    ready = time.perf_counter()
    cluster = workload.cluster
    sim = cluster.sim
    obs = obs_for(sim)
    out = {
        "workload": name, "seed": seed, "traced": traced,
        "ops_per_round": spec["ops_per_round"],
        "setup": {
            "raw_s": ready - started,
            "import_s": imported - started,
            "build_s": built - imported,
            "load_s": ready - built,
            "cal_before": cal_before,
            "sim_ms": (sim.now - cluster.boot_time) * 1e3,
        },
        "rounds": [],
    }
    out["setup"]["cal_after"] = calibrate()
    kind = out["calibration"] = workload.calibration
    cal = (out["setup"]["cal_after"] if kind == "interpreter"
           else calibrate(kind))

    counters_before = _counter_totals(obs.metrics)
    wire_before = cluster.network_bytes()
    profiler = None
    if traced:
        import cProfile

        profiler = cProfile.Profile()
        obs.tracer.enable()

    digest = hashlib.sha256()
    samples: list = []
    for rnd in range(rounds):
        gc.collect()
        cpu0 = time.process_time()
        host0 = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        result = workload.run_round(rnd)
        if profiler is not None:
            profiler.disable()
        host_s = time.perf_counter() - host0
        cpu_s = time.process_time() - cpu0
        cal_prev, cal = cal, calibrate(kind)
        samples.extend(result.samples)
        _fold_round(digest, result, cluster.network_bytes())
        if rnd == 0:
            out["sim_digest_r1"] = digest.hexdigest()
        out["rounds"].append({
            "ops": result.ops, "failed": result.failed,
            "payload": result.payload, "sim_s": result.sim_s,
            "host_s": host_s, "cpu_s": cpu_s,
            "cal_before": cal_prev, "cal_after": cal,
        })
    obs.tracer.disable()
    # a high-water mark, read before the oracles allocate their own
    # copies of the final state
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    counters = _counter_totals(obs.metrics)
    out["counters"] = {
        key: value - counters_before.get(key, 0)
        for key, value in counters.items()
    }
    out["wire_bytes"] = cluster.network_bytes() - wire_before
    samples.sort()
    out["latency"] = {"samples": len(samples)}
    if samples:
        out["latency"].update(
            iqm_us=stats.interquartile_mean(samples) * 1e6,
            tail_us=stats.tail_mean(samples) * 1e6,
            p50_us=stats.percentile(samples, 50) * 1e6,
            p99_us=stats.percentile(samples, 99) * 1e6,
            tail_supported=stats.tail_percentile(len(samples)),
        )

    if rounds:
        image_sha = workload.final_image_sha()
        out["problems"] = workload.problems(image_sha)
        if workload.data_workload and out["counters"].get(
                "client.master_calls", 0):
            out["problems"].append(
                "the steady state called the master "
                f"{out['counters']['client.master_calls']} times")
        digest.update(image_sha.encode())
        digest.update(_DOUBLE.pack(out["setup"]["sim_ms"]))
        out["sim_digest"] = digest.hexdigest()
    else:
        out["problems"] = []
    out["races"] = len(rsan_for(sim).races)
    if out["races"]:
        out["problems"].append(
            f"the race sanitizer reported {out['races']} races")

    if traced:
        out.update(_traced_extras(workload, obs, profiler))
    return out


def main(argv) -> int:
    result = run(json.loads(argv[1]))
    print(json.dumps(result))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
