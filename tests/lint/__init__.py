"""repro-lint's must-flag fixtures: one table, one marker convention.

Each fixture plants known violations of one rule, marked in-line with
``# -> RLxxx`` comments; the tests derive the expected ``(line, rule)``
set from those markers, so fixtures can be edited without chasing
hard-coded line numbers.  ``test_lint`` and ``test_analysis`` each run
their share of the rows through the same two checks.
"""

import re
from pathlib import Path

from repro.tools import lint
from repro.tools.cli import main as repro_main

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
    "RL010": HERE / "fixture_rl010.py",
    "RL011": HERE / "fixture_rl011.py",
    "RL012": HERE / "fixture_rl012.py",
}
#: the rows ``test_lint`` runs (RL001's control calls and RL003 are
#: decided over the linked program all the same) and ``test_analysis``
#: runs, beside the lock-order and exception-flow unit tests
PER_FILE_RULES = ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
                  "RL007", "RL012")
PROGRAM_RULES = ("RL010", "RL011")
#: retired ids and the rule that absorbed each: a retired row checks the
#: absorbing rule's fixture (which holds the retired fixture's cases)
#: and that the retired id is never reported
RETIRED = {"RL008": "RL001", "RL009": "RL003"}


def expected(path: Path) -> set[tuple[int, str]]:
    return {
        (lineno, match.group(1))
        for lineno, text in enumerate(path.read_text().splitlines(), 1)
        for match in [_MARKER.search(text)]
        if match
    }


def findings(*paths) -> list:
    return lint.lint_paths([Path(p) for p in paths], root=REPO).findings


def check_fixture_flags_its_marked_lines(rule):
    live = RETIRED.get(rule, rule)
    path = FIXTURES[live]
    found = {(v.line, v.rule) for v in findings(path)}
    assert found == expected(path)
    assert found, f"fixture for {live} plants no violations"
    assert {r for _, r in found} == {live}


def check_cli_exits_1_on_fixture(rule, capsys):
    live = RETIRED.get(rule, rule)
    path = FIXTURES[live]
    assert repro_main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    for line, _ in sorted(expected(path)):
        assert f"{path.name}:{line}: {live} " in out
    assert "violation(s)" in out
    if rule in RETIRED:
        assert rule not in out
