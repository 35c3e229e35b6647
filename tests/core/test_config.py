"""RStoreConfig validation and defaults."""

import ast
import dataclasses
from pathlib import Path

import pytest

from repro.core import RStoreConfig
from repro.simnet.config import MiB


def test_defaults_match_design_doc():
    config = RStoreConfig()
    assert config.master_host == 0
    assert config.stripe_size == 1 * MiB
    assert config.default_replication == 1
    assert not config.resolve_per_io
    assert not config.two_sided_data_path


def test_invalid_stripe_size_rejected():
    with pytest.raises(ValueError):
        RStoreConfig(stripe_size=0)
    with pytest.raises(ValueError):
        RStoreConfig(stripe_size=-4096)


def test_ablation_flags_independent():
    config = RStoreConfig(resolve_per_io=True)
    assert config.resolve_per_io and not config.two_sided_data_path
    config = RStoreConfig(two_sided_data_path=True)
    assert config.two_sided_data_path and not config.resolve_per_io


#: fields that name *where* a deployment lives rather than how the
#: system behaves — they stay configurable without a mover
DEPLOYMENT_IDENTIFIERS = {"master_host", "master_service", "mem_service",
                          "data_service", "seed"}


def test_every_knob_has_a_mover():
    """A field only tests set is a knob for tests alone: every
    behavioural knob must be passed as a keyword by some benchmark,
    bench workload or example, or it becomes a module constant."""
    root = Path(__file__).resolve().parents[2]
    passed = set()
    for top in ("benchmarks", "bench", "examples"):
        for path in (root / top).rglob("*.py"):
            if "tests" in path.relative_to(root).parts:
                continue  # bench/tests checks the driver, it moves nothing
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    passed.update(kw.arg for kw in node.keywords)
    knobs = {f.name for f in dataclasses.fields(RStoreConfig)}
    assert knobs - DEPLOYMENT_IDENTIFIERS - passed == set()
    assert len(knobs) <= 17


def test_no_private_state_is_conjured_by_a_getattr_default():
    """``getattr(obj, "_name", default)`` is state its class does not
    declare (the PR-23 ``_txn_token_seq`` shape): declare the attribute
    where the class is defined and read it plainly."""
    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    conjured = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "getattr"
        and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
        and isinstance(node.args[1].value, str)
        and node.args[1].value.startswith("_")
        and not node.args[1].value.startswith("__")
    ]
    assert conjured == []
