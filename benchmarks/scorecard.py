"""Render ``benchmarks/LEDGER.json`` into the marked blocks of the docs.

    python benchmarks/scorecard.py

Every ``<!-- scorecard:KEY -->`` ... ``<!-- /scorecard:KEY -->`` block in
EXPERIMENTS.md and README.md is replaced by what the ledger holds for
KEY: an experiment id (the tables and result lines its benchmark
printed, then its paper claims) or ``claims`` (every experiment's claims
in one table).  Text outside the blocks is hand-written and is never
touched.  No experiment's table layout lives here: titles, headers and
cells are the ones ``print_table`` recorded.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "LEDGER.json"
DOCS = ("EXPERIMENTS.md", "README.md")
BLOCK = re.compile(
    r"(<!-- scorecard:(\w+) -->\n).*?(<!-- /scorecard:\2 -->)", re.DOTALL)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    lines = [headers, ["---"] * len(headers), *rows]
    return "\n".join("| " + " | ".join(line) + " |" for line in lines)


def _span(low: float, high: float, unit: str = "", spec: str = ".4g") -> str:
    low, high = format(low, spec), format(high, spec)
    return (low if low == high else f"{low}–{high}") + unit


def _claims(ledger: dict, experiments: list[str]) -> str:
    rows = []
    for exp in experiments:
        for c in ledger[exp].get("claims", ()):
            measured, unit = c["measured"], c["unit"]
            ratio = sorted(measured / paper for paper in c["paper"])
            rows.append([
                c["text"], _span(*c["paper"], unit),
                f"{measured:.4g}{unit}", _span(*ratio, spec=".2f"),
                _span(*c["band"], unit), exp,
            ])
    return _table(["claim", "paper", "measured", "measured / paper",
                   "accepted band", "experiment"], rows)


def render(ledger: dict, key: str) -> str:
    """The generated text of block *key*."""
    if key == "claims":
        return _claims(ledger, sorted(ledger, key=lambda exp: int(exp[1:])))
    parts = [
        item if isinstance(item, str) else
        f"**{item['title']}**\n\n{_table(item['headers'], item['rows'])}"
        for item in ledger[key].get("report", ())
    ]
    if "claims" in ledger[key]:
        parts.append(_claims(ledger, [key]))
    return "\n\n".join(parts)


def regenerate(text: str, ledger: dict) -> str:
    """*text* with every marked block rendered afresh from *ledger*."""
    return BLOCK.sub(
        lambda m: f"{m[1]}{render(ledger, m[2])}\n{m[3]}", text)


def main() -> None:
    ledger = json.loads(LEDGER.read_text())
    for name in DOCS:
        path = ROOT / name
        path.write_text(regenerate(path.read_text(), ledger))


if __name__ == "__main__":
    main()
