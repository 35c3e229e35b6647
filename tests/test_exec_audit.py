"""The execution audit's rules, checked on small synthetic trees.

``tests/exec_audit.py`` traces the whole production set and tier-1,
which takes minutes; these tests run its tracer and its check on a
planted package in well under a second each.
"""

import os
import subprocess
import sys

import pytest

from tests.exec_audit import TRACER, check, declared

PACKAGE = '''\
class Store:
    def get(self, key, default=None):
        return default

    def put(self, key, value, sync=False):
        return sync


def scan(limit=10, *, reverse=False):
    limit = limit + 1
    yield limit
    limit = 99
    yield limit


def spare(depth=3):
    return depth
'''


def _audit(tmp_path, prod, tests, allow, capsys):
    """Check planted traces; ``(failure count, printed lines)``."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True, exist_ok=True)
    (src / "mod.py").write_text(PACKAGE)
    for name, lines in (("prod", prod), ("tests", tests)):
        (tmp_path / name).mkdir(exist_ok=True)
        (tmp_path / name / "1.txt").write_text("\n".join(lines) + "\n")
    defs, params = declared(src)
    failures = check(tmp_path, defs, allow, params)
    return failures, capsys.readouterr().out.splitlines()


RAN = ["mod.py:Store.get", "mod.py:Store.put", "mod.py:scan",
       "mod.py:spare"]
MOVED = ["mod.py:Store.get(default)", "mod.py:scan(limit)",
         "mod.py:scan(reverse)", "mod.py:spare(depth)"]


def test_every_defaulted_parameter_is_declared(tmp_path):
    src = tmp_path / "repro"
    src.mkdir()
    (src / "mod.py").write_text(PACKAGE)
    defs, params = declared(src)
    assert set(defs) == set(RAN)
    assert params == set(MOVED) | {"mod.py:Store.put(sync)"}


def test_a_parameter_only_tests_move_fails(tmp_path, capsys):
    failures, out = _audit(tmp_path, RAN + MOVED,
                           ["mod.py:Store.put(sync)"], {}, capsys)
    assert failures == 1
    assert out[0] == ("only tests move this parameter and it is not "
                      "allow-listed: mod.py:Store.put(sync)")
    assert out[-1].endswith("5 defaulted parameters, 1 test-only, 0 moved "
                            "by nothing, 0 allow-listed")
    failures, _ = _audit(tmp_path, RAN + MOVED, ["mod.py:Store.put(sync)"],
                         {"mod.py:Store.put(sync)": "an error path"}, capsys)
    assert failures == 0


def test_a_parameter_nothing_moves_fails(tmp_path, capsys):
    failures, out = _audit(tmp_path, RAN + MOVED[:-1], [], {}, capsys)
    assert failures == 2
    assert out[:2] == [
        "nothing moves this parameter from its default and it is not "
        "allow-listed: mod.py:Store.put(sync)",
        "nothing moves this parameter from its default and it is not "
        "allow-listed: mod.py:spare(depth)"]
    failures, _ = _audit(tmp_path, RAN + MOVED[:-1], [], {
        "mod.py:Store.put(sync)": "a fault run",
        "mod.py:spare(depth)": "a deployment identifier"}, capsys)
    assert failures == 0


def test_a_stale_parameter_entry_fails(tmp_path, capsys):
    prod = RAN + MOVED + ["mod.py:Store.put(sync)"]
    failures, out = _audit(tmp_path, prod, [], {
        "mod.py:Store.put(sync)": "a fault run",
        "mod.py:Store.put(flush)": "a fault run"}, capsys)
    assert failures == 2
    assert out[:2] == [
        "stale allow entry, no such parameter: mod.py:Store.put(flush)",
        "stale allow entry, production moves it: mod.py:Store.put(sync)"]


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="the tracer keys code objects by co_qualname")
def test_only_a_calls_first_entry_moves_a_parameter(tmp_path):
    """A generator re-enters its frame on every resume, after its body
    reassigned ``limit``: only the first entry is the call."""
    src = tmp_path / "src"
    (src / "repro").mkdir(parents=True)
    (src / "repro" / "__init__.py").write_text("")
    (src / "repro" / "mod.py").write_text(PACKAGE)
    (src / "sitecustomize.py").write_text(TRACER)
    out = tmp_path / "prod"
    subprocess.run(
        [sys.executable, "-c",
         "from repro.mod import Store, scan, spare\n"
         "assert list(scan()) == [11, 99]\n"
         "list(scan(10, reverse=True))\n"
         "Store().get(1, default=0)\n"
         "Store().put(1, 2, sync=False)\n"
         "spare(3.0)\n"],
        cwd=tmp_path, check=True,
        env=dict(os.environ, PYTHONPATH=str(src), REPRO_AUDIT_DIR=str(out)))
    [trace] = out.glob("*.txt")
    moved = {line for line in trace.read_text().split() if "(" in line}
    # default=0 is not None, 3.0 is not the int 3; sync=False is the
    # default object itself and scan's limit is only ever 10 on entry
    assert moved == {"mod.py:scan(reverse)", "mod.py:Store.get(default)",
                     "mod.py:spare(depth)"}
