"""CLI smoke tests (small scales: each traced run is a real simulation)."""

import pytest

from repro.tools.cli import main


def test_info_lists_model_constants(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "NetworkConfig" in out
    assert "link_rate_bps" in out
    assert "RStoreConfig" in out


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


@pytest.mark.parametrize("command", [
    "analyze", "bandwidth", "latency", "pagerank", "sort", "kv", "txn",
])
def test_removed_command_is_an_invalid_choice(command, capsys):
    # each scenario lives in benchmarks/ (its numbers) and examples/
    # (its demo); the CLI keeps only what exists nowhere else
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err


def test_help_offers_exactly_the_four_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{info,stats,trace,lint}" in capsys.readouterr().out
