"""DESIGN.md's control-RPC table lists exactly the RPCs the services register.

An RPC added without a row (who calls it, is it durable, what bounds its
wait) fails here, and so does a row left behind by a deleted one.
"""

import re
from pathlib import Path

from repro.cluster import build_cluster

DESIGN = Path(__file__).resolve().parents[2] / "DESIGN.md"


def documented_rpcs() -> dict[str, set[str]]:
    """``{service: {method, ...}}`` from the table whose header starts
    ``| method | service |``."""
    lines = DESIGN.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| method | service |"))
    table: dict[str, set[str]] = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        methods, service = (cell.strip() for cell in line.split("|")[1:3])
        table.setdefault(service, set()).update(
            re.findall(r"`(\w+)`", methods))
    return table


def test_the_design_table_lists_every_registered_control_rpc():
    cluster = build_cluster(num_machines=2)
    assert documented_rpcs() == {
        "master": set(cluster.master._rpc._handlers),
        "memory": set(cluster.servers[1]._rpc._handlers),
    }
