"""repro-lint against its fixtures and against the tree.

Each ``fixture_*.py`` file plants known violations, marked in-line
with ``# -> RLxxx`` comments; the test derives the expected
``(line, rule)`` set from those markers, so fixtures can be edited
without chasing hard-coded line numbers.  The tree itself (the
linter's default scope) must be clean — that is the satellite
guarantee that every pre-existing violation got fixed, and CI's
``lint-invariants`` job re-checks it on every push.
"""

import re
from pathlib import Path

import pytest

from repro.tools import lint

HERE = Path(__file__).parent
REPO = HERE.parent.parent
_MARKER = re.compile(r"#\s*->\s*(RL\d{3})")

FIXTURES = {
    "RL001": HERE / "coord" / "fixture_rl001.py",
    "RL002": HERE / "fixture_rl002.py",
    "RL003": HERE / "fixture_rl003.py",
    "RL004": HERE / "fixture_rl004.py",
    "RL005": HERE / "fixture_rl005.py",
    "RL006": HERE / "fixture_rl006.py",
    "RL007": HERE / "datapath" / "server_fixture_rl007.py",
    "RL012": HERE / "fixture_rl012.py",
}


def _expected(path: Path) -> set[tuple[int, str]]:
    return {
        (lineno, match.group(1))
        for lineno, text in enumerate(path.read_text().splitlines(), 1)
        for match in [_MARKER.search(text)]
        if match
    }


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_fixture_findings_match_markers(rule):
    path = FIXTURES[rule]
    found = {(v.line, v.rule) for v in lint.lint_paths([path])}
    assert found == _expected(path)
    assert found, f"fixture for {rule} plants no violations"
    assert {r for _, r in found} == {rule}


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_cli_exits_nonzero_with_file_line_rule(rule, capsys):
    path = FIXTURES[rule]
    assert lint.main([str(path)]) == 1
    out = capsys.readouterr().out
    for line, _ in sorted(_expected(path)):
        # paths print relative to the invocation cwd
        assert f"{path.name}:{line}: {rule} " in out
    assert "violation(s)" in out


def test_cli_exits_zero_on_the_tree(capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert lint.main([]) == 0
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
    found_lines = {v.line for v in lint.lint_paths([src])}
    assert suppressed_line not in found_lines


def test_violation_renders_path_line_rule():
    v = lint.Violation("a/b.py", 7, "RL002", "wall-clock read")
    assert str(v) == "a/b.py:7: RL002 wall-clock read"


def test_cli_exits_2_on_empty_scope(tmp_path, capsys):
    assert lint.main([str(tmp_path)]) == 2
    assert "nothing was checked" in capsys.readouterr().err


# -- internals: the helpers the analysis package also leans on -------------

def test_allow_comment_parses_multiple_rules():
    from repro.tools.source import allowed_rules

    assert allowed_rules("x = 1  # repro-lint: allow[RL001, RL005]") \
        == {"RL001", "RL005"}
    assert allowed_rules("# repro-lint: allow[RL010,RL011]") \
        == {"RL010", "RL011"}
    assert allowed_rules("x = 1  # a plain comment") == set()


def test_retrying_trys_sees_nested_try_except_finally():
    import ast
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
    retrying = list(lint._retrying_trys(loop.body))
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
    return lint.lint_paths([path])


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
