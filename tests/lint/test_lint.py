"""repro-lint against its fixtures and against the tree.

The fixture table and the ``# -> RLxxx`` marker convention live in
``tests/lint/__init__.py``; this file runs the per-file rules' rows,
the CLI contract and the per-rule unit tests.  The tree itself (the
default scope) must be clean — that is the guarantee that every
pre-existing violation got fixed, and CI's ``lint-invariants`` job
re-checks it on every push.
"""

import ast
import json

import pytest

from repro.tools import lint
from repro.tools.cli import main as repro_main
from repro.tools.lint.file_rules import _retrying_trys
from tests.lint import (
    FIXTURES,
    HERE,
    PER_FILE_RULES,
    REPO,
    check_cli_exits_1_on_fixture,
    check_fixture_flags_its_marked_lines,
    findings,
)


@pytest.mark.parametrize("rule", PER_FILE_RULES)
def test_fixture_findings_match_markers(rule):
    check_fixture_flags_its_marked_lines(rule)


@pytest.mark.parametrize("rule", PER_FILE_RULES)
def test_cli_exits_nonzero_with_file_line_rule(rule, capsys):
    check_cli_exits_1_on_fixture(rule, capsys)


def test_cli_exits_zero_on_the_tree(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert repro_main(["lint"]) == 0
    assert "repro-lint: clean" in capsys.readouterr().out


def test_default_scope_covers_library_examples_benchmarks():
    scope = {p.name for p in lint.default_paths(REPO)}
    assert scope == {"repro", "examples", "benchmarks"}


def test_suppression_comment_silences_one_line():
    # fixture_rl002 carries one allow[RL002] line; prove it is the
    # suppression doing the work by linting the same draw un-suppressed
    src = HERE / "fixture_rl002.py"
    text = src.read_text()
    assert "# repro-lint: allow[RL002]" in text
    suppressed_line = next(
        i for i, line in enumerate(text.splitlines(), 1)
        if "allow[RL002]" in line
    )
    result = lint.lint_paths([src])
    assert suppressed_line not in {v.line for v in result.findings}
    assert result.suppressed == 1


def test_violation_renders_path_line_rule():
    v = lint.Violation("a/b.py", 7, "RL002", "wall-clock read")
    assert str(v) == "a/b.py:7: RL002 wall-clock read"


def test_cli_exits_2_on_empty_scope(tmp_path, capsys):
    assert repro_main(["lint", str(tmp_path)]) == 2
    assert "nothing was checked" in capsys.readouterr().err


# -- one command, one parse, nothing written --------------------------------

def test_repro_lint_runs_the_program_rules(capsys):
    rc = repro_main(["lint", "--json", str(FIXTURES["RL003"])])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in payload["findings"]} == {"RL003"}


def test_each_file_is_parsed_once(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(text, *args, **kwargs):
        parsed.append(kwargs.get("filename"))
        return real_parse(text, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    scope = [FIXTURES["RL001"], FIXTURES["RL003"], FIXTURES["RL010"]]
    assert findings(*scope)
    assert sorted(parsed) == sorted(str(p) for p in scope)


def test_a_run_leaves_nothing_behind_in_the_tree_root(tmp_path):
    victim = tmp_path / "victim.py"
    victim.write_text("def go(client):\n"
                      "    fut = yield from client.read_async(0, 8)\n")
    assert lint.lint_paths([tmp_path], root=tmp_path).findings
    assert list(tmp_path.iterdir()) == [victim]


# -- internals ---------------------------------------------------------------

def test_allow_comment_parses_multiple_rules():
    from repro.tools.source import allowed_rules

    assert allowed_rules("x = 1  # repro-lint: allow[RL001, RL005]") \
        == {"RL001", "RL005"}
    assert allowed_rules("# repro-lint: allow[RL010,RL011]") \
        == {"RL010", "RL011"}
    assert allowed_rules("x = 1  # a plain comment") == set()


def test_retrying_trys_sees_nested_try_except_finally():
    import textwrap

    tree = ast.parse(textwrap.dedent(
        """
        while True:
            try:
                try:
                    work()
                except ValueError:
                    continue
                finally:
                    cleanup()
            except KeyError:
                pass
            try:
                step()
            finally:
                try:
                    flush()
                except OSError:
                    continue
        """
    ))
    loop = tree.body[0]
    retrying = list(_retrying_trys(loop.body))
    # the inner continue-on-ValueError try (behind an outer try whose
    # own handlers do not retry) and the continue-on-OSError try
    # buried in a finally block; never the two non-retrying outer trys
    assert len(retrying) == 2
    calls = {stmt.body[0].value.func.id for stmt in retrying}
    assert calls == {"work", "flush"}


def _lint_snippet(tmp_path, relpath: str, text: str):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return findings(path)


def test_rl006_flags_endpoint_deep_in_attribute_chain(tmp_path):
    found = _lint_snippet(
        tmp_path, "registry.py",
        "def dial(cluster):\n"
        "    return cluster.cfg.master_service.host\n")
    assert [(v.line, v.rule) for v in found] == [(2, "RL006")]


def test_rl006_exempts_the_shard_layer_and_master(tmp_path):
    for name in ("master.py", "shard_router.py", "config.py"):
        found = _lint_snippet(
            tmp_path, name,
            f"def dial_{name.split('.')[0]}(cfg):\n"
            "    return cfg.master_service\n")
        assert not found, name


def test_rl007_flags_control_dial_through_attribute_chain(tmp_path):
    found = _lint_snippet(
        tmp_path, "datapath/server_probe.py",
        "def execute(server, args):\n"
        "    return server.node.rpc.client_for(0)\n")
    assert [(v.line, v.rule) for v in found] == [(2, "RL007")]


def test_rl007_scope_is_server_modules_under_datapath_only(tmp_path):
    bad = ("from repro.rpc.frames import Frame\n"
           "def execute(server, args):\n"
           "    return Frame\n")
    found = _lint_snippet(tmp_path, "datapath/server_sum.py", bad)
    assert [(v.line, v.rule) for v in found] == [(1, "RL007")]
    # same text outside the server-op scope: not RL007's business
    assert not _lint_snippet(tmp_path, "datapath/client_sum.py", bad)
    assert not _lint_snippet(tmp_path, "elsewhere/server_sum.py", bad)
