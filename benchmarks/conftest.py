"""The experiment suite's shared helpers and its one ledger writer.

Every ``test_e<N>_*`` regenerates one table or figure of the paper's
evaluation (DESIGN.md's experiment index) and leaves what it measured
in ``benchmark.extra_info``: raw simulated values, the tables and result
lines it printed (:func:`print_table`, :func:`note`) and the paper
claims it checked (:func:`claim`).  The hooks below merge every
experiment that passed into ``LEDGER.json`` — simulated values only,
byte-identical from run to run — and ``python benchmarks/scorecard.py``
renders that file into EXPERIMENTS.md and README.md.  Wall seconds and
peak RSS go to the terminal and the untracked ``out/host.json``.

Run:  pytest benchmarks --benchmark-only -s
"""

from __future__ import annotations

import json
import re
import resource
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from benchmarks.scorecard import LEDGER

HOST = LEDGER.with_name("out") / "host.json"
#: the host clock's field names; a ledger entry carrying one is refused
HOST_FIELDS = ("wall_s", "peak_rss_mb")

_RAN = pytest.StashKey[dict]()
_HOST = pytest.StashKey[dict]()


def print_table(benchmark, title: str, headers: list[str],
                rows: list[list]) -> None:
    """Print a fixed-width table like the paper's, and record it."""
    cells = [[str(c) for c in row] for row in rows]
    benchmark.extra_info.setdefault("report", []).append(
        {"title": title, "headers": headers, "rows": cells})
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in cells:
        print("  ".join(c.rjust(w) for c, w in zip(row, widths)))


def note(benchmark, text: str) -> None:
    """Print one result line that belongs to no table, and record it."""
    benchmark.extra_info.setdefault("report", []).append(text)
    print(text)


def claim(benchmark, text: str, *, paper, measured: float,
          band: tuple[float, float], unit: str) -> None:
    """Record a paper claim and assert *measured* lies inside *band*.

    *paper* is the published value or a ``(low, high)`` range, in the
    same display *unit* (written with its leading space, if any) as
    *measured* and *band*.
    """
    low, high = band
    benchmark.extra_info.setdefault("claims", []).append({
        "text": text, "unit": unit, "measured": measured,
        "paper": list(paper) if isinstance(paper, tuple) else [paper, paper],
        "band": [low, high],
    })
    assert low < measured < high, (
        f"{text}: measured {measured:.4g}{unit}, band {low}-{high}{unit}")


@contextmanager
def no_setup(*clients):
    """Guard a timed window: assert that none of *clients* did set-up
    work inside the ``with`` block — no QP or memory-service channel
    dial, no fetch-buffer open (``RStoreClient.setup_events``) — or
    called the master (``RStoreClient.master_calls``).  The paper's
    data path pays set-up at ``map`` and open and leaves the master out
    of the steady state a rate or latency row claims to time."""
    def held():
        return [(client.setup_events, client.master_calls)
                for client in clients]

    before = held()
    yield
    after = held()
    assert after == before, (
        f"set-up or a master call inside a timed window: "
        f"(setup_events, master_calls) {before} -> {after}")


def fmt_us(seconds: float) -> str:
    return f"{seconds * 1e6:.2f}"


def fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.2f}"


def fmt_gbps(bps: float) -> str:
    return f"{bps / 1e9:.1f}"


# -- the ledger ---------------------------------------------------------------


def dumps(doc) -> str:
    """The ledger's serialisation: sorted keys, NaN and infinity refused."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                      ensure_ascii=False) + "\n"


def checked(entry: dict) -> dict:
    """*entry* if the ledger may hold it: finite, and no host clock."""
    text = dumps(entry)
    for field in HOST_FIELDS:
        if f'"{field}":' in text:
            raise ValueError(f"{field!r} is a host-clock value: it belongs "
                             f"in {HOST.name}, not in {LEDGER.name}")
    return entry


def write_merged(path: Path, ran: dict) -> None:
    """Replace the experiments in *ran* in the JSON object at *path* and
    keep the others — the one JSON write site under ``benchmarks/``."""
    kept = json.loads(path.read_text()) if path.exists() else {}
    path.parent.mkdir(exist_ok=True)
    path.write_text(dumps({**kept, **ran}))


def pytest_configure(config):
    config.stash[_RAN], config.stash[_HOST] = {}, {}


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    result = yield  # a failed experiment raises here: its old entry stays
    exp = re.match(r"test_e(\d+)_", item.name)
    bench = item.funcargs.get("benchmark")
    if exp and bench is not None:
        item.config.stash[_RAN][f"E{exp[1]}"] = checked(bench.extra_info)
        if bench.stats is not None:  # None under --benchmark-disable
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is bytes on macOS, KiB everywhere else
            peak /= 1 << 20 if sys.platform == "darwin" else 1 << 10
            item.config.stash[_HOST][f"E{exp[1]}"] = {
                "wall_s": bench.stats.stats.total, "peak_rss_mb": peak}
    return result


def pytest_sessionfinish(session):
    ran = session.config.stash[_RAN]
    if ran:
        write_merged(LEDGER, ran)
        write_merged(HOST, session.config.stash[_HOST])


def pytest_terminal_summary(terminalreporter, config):
    host = config.stash[_HOST]
    if host:
        terminalreporter.section(
            f"host clock per experiment ({HOST.name}; never in {LEDGER.name})")
        terminalreporter.write_line("        wall (s)  process peak RSS (MB)")
        for exp in sorted(host, key=lambda exp: int(exp[1:])):
            terminalreporter.write_line(
                f"{exp:>4}  {host[exp]['wall_s']:10.2f}"
                f"  {host[exp]['peak_rss_mb']:21.0f}")
