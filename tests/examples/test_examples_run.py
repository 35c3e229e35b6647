"""Every example script runs to completion and prints what it promises.

These are subprocess smoke tests — the examples are the first thing a
new user executes, so they must never rot.
"""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "hello, distributed DRAM!" in out
    assert "alloc" in out and "read" in out


def test_pagerank_example():
    out = run_example("pagerank_social_graph.py")
    assert "speedup" in out
    assert "top-5 vertices" in out


def test_sort_example():
    out = run_example("distributed_sort.py")
    assert "RSort" in out and "speedup" in out


def test_kv_cache_example():
    out = run_example("distributed_kv_cache.py")
    assert "kops/s" in out
    assert "server CPUs idle: True" in out
    # the eviction pass and the batched read-back agree with the sockets KV
    assert "40 keys live in the read-back (same on both stores)" in out


def test_failover_example():
    out = run_example("failover_with_replication.py")
    assert "lost, as expected" in out
    assert "intact" in out


def test_bank_transfer_example():
    out = run_example("bank_transfer.py")
    assert "while the master was DOWN" in out
    assert "paid out to acct-00, the key deleted" in out
    assert "balance conserved" in out
    assert "all ridden out" in out


def test_master_failover_example():
    out = run_example("master_failover.py")
    assert "alloc failed fast" in out
    assert "replayed from the WAL" in out
    assert "no committed region lost" in out


def test_multi_tenant_example():
    out = run_example("multi_tenant.py")
    assert "denied at allocation" in out
    assert "unaffected by acme's quota" in out
    assert "re-map cost 0 master RPCs" in out
    assert "ledger : shard 1" in out
