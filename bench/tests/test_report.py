import json
from pathlib import Path

import pytest
import report
import stats
from calib import CAL_REF

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
REF = CAL_REF["interpreter"]


def _round(ops=1000, failed=0, host_s=1.0, cal=REF):
    return {"ops": ops, "failed": failed, "payload": 128 * (ops - failed),
            "sim_s": 0.002, "host_s": host_s, "cpu_s": 0.99 * host_s,
            "cal_before": cal, "cal_after": cal}


def _child(rounds, setup_raw_s=1.0, setup_cal=REF):
    return {
        "calibration": "interpreter",
        "setup": {"raw_s": setup_raw_s, "import_s": 0.2, "build_s": 0.1,
                  "load_s": setup_raw_s - 0.3, "cal_before": setup_cal,
                  "cal_after": setup_cal, "sim_ms": 7.5},
        "rounds": rounds,
        "latency": {"samples": 1000, "iqm_us": 2.5, "tail_us": 9.0,
                    "p50_us": 2.4, "p99_us": 8.0, "tail_supported": 99.0},
        "peak_rss_mb": 100.0,
        "counters": {
            "rnic.ops_posted": 2000, "rnic.doorbells_rung": 500,
            "client.master_calls": 0, "master.rpc_served": 10,
            "datapath.server_ops": 700, "datapath.remote_fetches": 100,
            "datapath.busy_retries": 100, "datapath.bytes_fetched": 6400,
            "txn.commits": 400, "txn.aborts": 40,
        },
        "wire_bytes": 256_000, "races": 0,
    }


def _traced():
    child = _child([_round(host_s=4.0)])
    layers = {name: {"calls": 0, "self_s": 0.0}
              for name in stats.LAYERS + stats.EXTRA_LAYERS}
    layers["simnet"] = {"calls": 50_000, "self_s": 3.0}
    layers["rdma"] = {"calls": 10_000, "self_s": 1.0}
    child.update(
        profile={"layers": layers, "events": 12_000, "processes": 500,
                 "memory_self_s": 0.5},
        spans={"recorded": 5000, "dropped": 7},
        histograms={"span.data.nic.wire": {"count": 9, "mean": 2e-6,
                                           "p50": 2e-6, "p99": 3e-6}},
        bare_events_per_s=9e5, bare_cal=REF,
        buffer_alloc_ms_per_gib=1.25,
    )
    return child


def test_end_to_end_names_match_the_contract():
    full = _child([_round() for _ in range(14)])
    metrics = report.end_to_end(full, [_child([]), _child([])])
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in metrics.values())


def test_host_rate_comes_from_the_undisturbed_calibrated_rounds():
    rounds = [_round(host_s=1.0) for _ in range(13)]
    # a slow spell took six rounds; one round ran on a machine 25 %
    # faster, and its calibration slices saw the same speed-up
    rounds[3:9] = [_round(host_s=1.5) for _ in range(6)]
    rounds.append(_round(host_s=0.8, cal=1.25 * REF))
    metrics = report.end_to_end(_child(rounds), [])
    assert metrics["host_ops_per_s"] == pytest.approx(1000.0)


def test_failed_ops_do_not_count_as_throughput():
    metrics = report.end_to_end(_child([_round(ops=1000, failed=100)]), [])
    assert metrics["sim_ops_per_s"] == pytest.approx(900 / 0.002)
    assert metrics["host_ops_per_s"] == pytest.approx(900.0)


def test_setup_is_the_median_of_the_fresh_processes():
    full = _child([_round()], setup_raw_s=3.0)
    others = [_child([], setup_raw_s=1.0),
              _child([], setup_raw_s=0.9, setup_cal=2 * REF)]
    # 3.0 s (first run compiles bytecode), 1.0 s, and 0.9 s on a machine
    # twice as fast, which is 1.8 s of reference time
    assert report.end_to_end(full, others)["setup_s"] == pytest.approx(1.8)


def test_per_layer_names_match_the_contract():
    metrics = report.per_layer(_child([_round()]), _traced(), None)
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}


def test_per_layer_values():
    metrics = report.per_layer(_child([_round()]), _traced(), None)
    assert metrics["simnet.host_self_share"] == pytest.approx(0.75)
    assert metrics["rdma.host_self_share"] == pytest.approx(0.25)
    assert metrics["txn.host_self_share"] == 0.0
    assert metrics["simnet.py_calls_per_op"] == pytest.approx(50.0)
    assert metrics["simnet.events_per_op"] == pytest.approx(12.0)
    # host time per event comes from the untraced run of the same round
    assert metrics["simnet.host_us_per_event"] == pytest.approx(1e6 / 12_000)
    assert metrics["bench.trace_overhead_ratio"] == pytest.approx(4.0)
    assert metrics["rdma.doorbells_per_wr"] == pytest.approx(0.25)
    assert metrics["rdma.bytes_copied_share"] == pytest.approx(0.125)
    assert metrics["rdma.sim_wire_p50_us"] == pytest.approx(2.0)
    assert metrics["core.sim_submit_p50_us"] == 0.0
    # 700 dp_exec calls = 500 server ops + 100 busy redrives + 100 calls
    # whose reply was picked up by a remote fetch
    assert metrics["datapath.mode_share_server_op"] == pytest.approx(0.5)
    assert metrics["datapath.mode_share_remote_fetch"] == pytest.approx(0.1)
    assert metrics["datapath.mode_share_one_sided"] == pytest.approx(0.4)
    assert metrics["txn.aborts_per_commit"] == pytest.approx(0.1)
    assert metrics["obs.spans_per_op"] == pytest.approx(5.007)
    assert metrics["sanitize.host_overhead_ratio"] == 0.0


def test_sanitizer_overhead_is_twin_over_sanitized():
    plain = _child([_round(host_s=2.0)])
    twin = _child([_round(host_s=1.0)])
    metrics = report.per_layer(plain, _traced(), twin)
    assert metrics["sanitize.host_overhead_ratio"] == pytest.approx(2.0)
