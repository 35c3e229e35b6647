"""The E1-E17 ledger, its one emitter and the docs generated from it.

No simulation runs here: the checked-in ``benchmarks/LEDGER.json`` is
the input, so a stale headline number in EXPERIMENTS.md or README.md is
a tier-1 failure, not something a reader has to notice.
"""

import json
import re

import pytest

from benchmarks.conftest import checked, dumps, write_merged
from benchmarks.scorecard import BLOCK, DOCS, LEDGER, ROOT, regenerate

EXPERIMENTS = [f"E{n}" for n in range(1, 18)]


@pytest.fixture(scope="module")
def ledger():
    return json.loads(LEDGER.read_text())


def test_ledger_holds_every_experiment_in_bytes_no_key_order_changes(ledger):
    assert sorted(ledger) == sorted(EXPERIMENTS)
    for entry in ledger.values():
        checked(entry)
    text = LEDGER.read_text()
    backwards = json.loads(
        text, object_pairs_hook=lambda pairs: dict(reversed(pairs)))
    assert list(backwards) != list(ledger)
    assert dumps(backwards) == dumps(ledger) == text


@pytest.mark.parametrize("name", DOCS)
def test_generated_blocks_equal_what_the_ledger_renders(ledger, name):
    text = (ROOT / name).read_text()
    assert regenerate(text, ledger) == text, (
        f"{name} drifted from LEDGER.json: run python benchmarks/scorecard.py")
    keys = {match[2] for match in BLOCK.finditer(text)}
    assert keys == ({"claims"} if name == "README.md"
                    else {"claims", *EXPERIMENTS})


def test_a_hand_edited_digit_inside_a_block_is_caught(ledger):
    text = (ROOT / "EXPERIMENTS.md").read_text()
    block = BLOCK.search(text, text.index("<!-- scorecard:E3 -->"))
    digit = re.compile(r"\d").search(text, block.end(1))
    flipped = str((int(digit[0]) + 1) % 10)
    edited = text[:digit.start()] + flipped + text[digit.end():]
    assert regenerate(edited, ledger) == text != edited
    # prose outside the blocks is hand-written and left alone
    assert regenerate(text + "E3 moved 3 %\n", ledger) == text + "E3 moved 3 %\n"


def test_every_abstract_claim_is_recorded_inside_its_band(ledger):
    for exp in ("E2", "E3", "E5", "E7"):
        assert ledger[exp]["claims"], exp
    for exp, entry in ledger.items():
        for claim in entry.get("claims", ()):
            low, high = claim["band"]
            assert low < claim["measured"] < high, (exp, claim["text"])


def test_emitter_replaces_only_the_experiments_that_ran(tmp_path):
    path = tmp_path / "out" / "ledger.json"
    write_merged(path, {"E1": {"rows": [1.5]}, "E2": {"rows": [2.5]}})
    write_merged(path, {"E2": {"rows": [9.0]}, "E10": {"rows": []}})
    assert json.loads(path.read_text()) == {
        "E1": {"rows": [1.5]}, "E2": {"rows": [9.0]}, "E10": {"rows": []}}


@pytest.mark.parametrize("entry", [
    {"rows": [{"latency_s": float("nan")}]},
    {"rows": [{"latency_s": float("inf")}]},
    {"rows": [{"latency_s": 1e-6, "wall_s": 0.3}]},
    {"peak_rss_mb": 512.0},
])
def test_emitter_refuses_non_finite_and_host_clock_values(entry):
    with pytest.raises(ValueError):
        checked(entry)
