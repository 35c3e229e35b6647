"""repro-lint's program rules: fixtures, call-path contract, linking.

Runs the RL010 and RL011 rows of the fixture table in
``tests/lint/__init__.py`` and the rows of the retired RL008 and RL009
(now reported as RL001 and RL003), then what only the linked program can
show: RL001's call-path contract, the ``--json`` schema CI archives,
and name-resolution unit tests over synthetic programs.
"""

import ast
import json
from pathlib import Path

import pytest

from repro.tools import lint
from repro.tools.cli import main as repro_main
from repro.tools.lint import Program, summarize_source
from repro.tools.source import SourceFile
from tests.lint import (
    FIXTURES,
    PROGRAM_RULES,
    RETIRED,
    check_cli_exits_1_on_fixture,
    check_fixture_flags_its_marked_lines,
    findings,
)


# -- the two rules and the two retired ids against their fixtures ---------

@pytest.mark.parametrize("rule", (*RETIRED, *PROGRAM_RULES))
def test_fixture_findings_match_markers(rule):
    check_fixture_flags_its_marked_lines(rule)


@pytest.mark.parametrize("rule", (*RETIRED, *PROGRAM_RULES))
def test_cli_exits_nonzero_on_each_fixture(rule, capsys):
    check_cli_exits_1_on_fixture(rule, capsys)


def test_rl001_prints_the_full_call_path():
    deep = next(v for v in findings(FIXTURES["RL001"])
                if "read_slot_deep" in v.message)
    assert "2-hop" in deep.message
    text = str(deep)
    assert "call path:" in text
    assert "calls SlotStore._view at" in text
    assert "calls SlotStore._open_view at" in text
    assert ".map() at tests/lint/coord/fixture_rl001.py:" in \
        text.splitlines()[-1]


def test_rl010_names_both_sides_of_the_inversion():
    hidden = next(v for v in findings(FIXTURES["RL010"])
                  if "through _take_delta" in v.message)
    assert "RemoteLock:gamma" in str(hidden)
    assert "RemoteLock:delta" in str(hidden)


def test_rl011_witnesses_the_reachable_fatal():
    witnessed = next(v for v in findings(FIXTURES["RL011"])
                     if "QuotaError" in v.message)
    assert "silently retried forever" in witnessed.message


# -- CLI contract -----------------------------------------------------------

def test_cli_exits_zero_on_the_tree(capsys):
    # clean *and* linked: a clean verdict from a linker that resolved
    # nothing would be vacuous
    assert repro_main(["lint", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"] == []
    assert payload["stats"]["files"] > 100
    assert payload["stats"]["call_edges"] > payload["stats"]["files"]


def test_cli_json_schema_is_stable(capsys):
    assert repro_main(["lint", "--json", str(FIXTURES["RL003"])]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 2
    assert payload["tool"] == "repro-lint"
    assert payload["findings"]
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "message",
                                "detail"}
    assert set(payload["stats"]) == {
        "files", "functions", "call_edges", "suppressed",
    }


def test_cli_exits_2_on_empty_scope(tmp_path, capsys):
    assert repro_main(["lint", "--json", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "nothing was checked" in captured.err
    assert captured.out == ""


def test_allow_comment_suppresses_a_finding(tmp_path):
    victim = tmp_path / "victim.py"
    victim.write_text(
        "def go(client):\n"
        "    fut = yield from client.read_async(0, 8)"
        "  # repro-lint: allow[RL003]\n")
    result = lint.lint_paths([victim])
    assert not result.findings
    assert result.suppressed == 1


def test_unparsable_file_is_an_rl000_error(tmp_path, capsys):
    victim = tmp_path / "broken.py"
    victim.write_text("def broken(:\n")
    assert repro_main(["lint", str(victim)]) == 1
    assert "RL000" in capsys.readouterr().out


# -- name resolution over synthetic programs --------------------------------

def _program(modules: dict) -> Program:
    summaries = []
    for rel, text in modules.items():
        source = SourceFile(Path(rel), rel, text, tree=ast.parse(text))
        summaries.append(summarize_source(source))
    return Program(summaries)


def test_resolves_methods_through_base_classes():
    prog = _program({"src/repro/kv/mod.py": (
        "class Base:\n"
        "    def ping(self):\n"
        "        return 1\n"
        "class Child(Base):\n"
        "    def go(self):\n"
        "        return self.ping()\n"
    )})
    assert prog.edges["repro.kv.mod:Child.go"] \
        == [(0, "repro.kv.mod:Base.ping")]


def test_resolves_imported_names_and_constructed_locals():
    prog = _program({
        "src/repro/coord/lock.py": (
            "class RemoteLock:\n"
            "    def acquire(self):\n"
            "        yield None\n"
        ),
        "src/repro/kv/table.py": (
            "from repro.coord.lock import RemoteLock\n"
            "def helper():\n"
            "    return 1\n"
            "def go(client):\n"
            "    lock = RemoteLock()\n"
            "    yield from lock.acquire()\n"
            "    return helper()\n"
        ),
    })
    callees = {callee for _, callee
               in prog.edges["repro.kv.table:go"]}
    assert "repro.coord.lock:RemoteLock.acquire" in callees
    assert "repro.kv.table:helper" in callees


def test_resolves_self_attributes_captured_in_init():
    prog = _program({"src/repro/kv/mod.py": (
        "class Lock:\n"
        "    def acquire(self):\n"
        "        yield None\n"
        "class Table:\n"
        "    def __init__(self):\n"
        "        self._lock = Lock()\n"
        "    def go(self):\n"
        "        yield from self._lock.acquire()\n"
    )})
    callees = {callee for _, callee
               in prog.edges["repro.kv.mod:Table.go"]}
    assert "repro.kv.mod:Lock.acquire" in callees


def test_unresolvable_receivers_contribute_no_edges():
    prog = _program({"src/repro/kv/mod.py": (
        "def go(client):\n"
        "    return client.mystery()\n"
    )})
    assert prog.edges["repro.kv.mod:go"] == []
