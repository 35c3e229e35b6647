"""CLI smoke tests (small scales: each runs a real simulation)."""

import pytest

from repro.tools.cli import main


def test_info_lists_model_constants(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "NetworkConfig" in out
    assert "link_rate_bps" in out
    assert "RStoreConfig" in out


def test_latency_prints_table(capsys):
    assert main(["latency", "--reps", "2"]) == 0
    out = capsys.readouterr().out
    assert "read (us)" in out
    assert "1048576" in out


def test_bandwidth_reports_aggregate(capsys):
    assert main(["bandwidth", "--machines", "3", "--scale", "4"]) == 0
    out = capsys.readouterr().out
    assert "aggregate=" in out
    aggregate = float(out.split("aggregate=")[1].split(" ")[0])
    assert aggregate > 100  # 3 machines at ~50 Gb/s each


def test_pagerank_reports_speedup(capsys):
    assert main(["pagerank", "--machines", "3", "--scale", "10",
                 "--iterations", "3"]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_sort_reports_ratio(capsys):
    assert main(["sort", "--machines", "3", "--records", "1500",
                 "--gigabytes", "2"]) == 0
    out = capsys.readouterr().out
    assert "RSort" in out and "ratio" in out


def test_kv_reports_ops(capsys):
    assert main(["kv", "--clients", "2", "--ops", "40"]) == 0
    out = capsys.readouterr().out
    assert "kops/s" in out


def test_txn_reports_counters_and_conservation(capsys):
    assert main(["txn", "--clients", "2", "--accounts", "16",
                 "--transfers", "10"]) == 0
    out = capsys.readouterr().out
    assert "ktxn/s" in out
    assert "txn.commits = 20" in out
    assert "txn.aborts" in out
    assert "p50" in out and "p99" in out
    assert "(conserved)" in out


def test_stats_proves_zero_steady_state_master_rpcs(capsys):
    assert main(["stats", "--machines", "3", "--ops", "48",
                 "--window", "8"]) == 0
    out = capsys.readouterr().out
    # the per-layer breakdown covers the whole pipeline
    for layer in ("client", "qp", "wire", "cq", "wait", "op"):
        assert layer in out
    assert "master_rpcs = 0" in out
    assert "zero steady-state master RPCs" in out
    assert "data_ops = 48" in out
    # the simulator's own cost of that steady state, next to the layers
    assert "kernel events/op" in out and "processes/op" in out


def test_stats_proves_per_shard_census_and_tenant_isolation(capsys):
    assert main(["stats", "--machines", "3", "--ops", "32",
                 "--window", "8", "--shards", "2"]) == 0
    out = capsys.readouterr().out
    # every shard's steady-state delta is zero, not just the total
    assert "per-shard steady-state control RPCs:" in out
    assert "warm-cache re-map issued 0 control RPC(s)" in out
    assert "leases served from the client cache" in out
    # both tenants appear with their logical bytes and no denials
    assert "acme" in out and "globex" in out
    assert "client.metadata_cache_hits" in out


def test_trace_prints_span_timeline(capsys):
    assert main(["trace", "--machines", "3", "--ops", "8",
                 "--window", "4", "--limit", "500"]) == 0
    out = capsys.readouterr().out
    assert "control.master.alloc" in out
    assert "data.nic.wire" in out
    assert "data.batch.flush" in out
    assert "dur(us)" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["definitely-not-a-command"])
