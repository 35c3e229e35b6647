"""repro-lint: static checks for invariants ruff cannot express.

One pass, ten rules, one per design contract of this repo.  Every
file in scope is read and parsed once into a summary (:mod:`.summary`);
the summaries are linked into a name-resolved call graph
(:mod:`.graph`).  What one file alone decides is decided there
(:mod:`.file_rules`); the rest propagates interprocedurally
(:mod:`.program_rules`):

* **RL001 — control-path isolation.**  Data-path modules (any file
  under a ``coord``, ``graph``, ``sort``, ``kv`` or ``txn`` directory)
  must not import master/RPC machinery (per file), and a steady-state
  function there — one whose own and enclosing names carry no
  setup/teardown token (``create``, ``open``, ``load``, ``prepare``, …)
  — must not make or *reach* a control-path call (``alloc``, ``map``,
  ``lookup``, ``free``, ``_master_call``, …).  One reach computation:
  a direct call is flagged at its site; a call reached through helpers
  at the chain's first hop, with the full call path printed.  The
  paper's separation thesis as a lint rule.
* **RL002 — simulation determinism.**  No wall-clock reads
  (``time.time()`` and friends) and no draws from the process-global
  ``random`` module (or unseeded ``random.Random()`` / numpy
  generators) outside ``simnet/``, however the module was imported.
  Every source of nondeterminism must flow through the simulator's
  seeded streams, or seeded replay breaks.  And the simulated clock
  has one writer: nothing outside ``simnet/kernel.py`` assigns ``.now``.
* **RL003 — future-escape.**  A ``*_async`` result must reach a
  ``wait``/``result``/batch sink: one dropped on the spot, assigned to
  a name that is never read, or handed back by a helper whose result
  is dropped or never read is flagged.  Nobody will ever observe its
  error, and (to the race sanitizer) the op never happens-before
  anything.
* **RL004 — instrument naming.**  Metric and span names follow the
  ``layer.noun_verb`` registry convention with a known first segment,
  so dashboards and ``report.py`` groupers keep working.
* **RL005 — bounded retries.**  A ``while True:`` loop that catches an
  exception and ``continue``\\ s is an unbounded retry: under a
  partition it spins (and keeps the simulation alive) forever.  Every
  retry loop outside ``simnet/`` must be visibly bounded — by a
  deadline, an attempt budget, or a :class:`Backoff` with a deadline.
* **RL006 — master endpoints dial through the shard router.**  The
  only code allowed to name a master's wire endpoint
  (``config.master_service``) is the shard layer (``core/shard*.py``)
  and the master that binds it (``core/master.py``); anyone else
  silently pins itself to shard 0 under ``control_shards > 1``.
* **RL007 — server-op handlers stay on the data plane.**  Server-side
  executors (``server_*.py`` under a ``datapath`` directory) run
  *inside* a memory server's RPC dispatch: one that imports
  master/RPC/shard machinery or dials a control endpoint turns a data
  op into a hidden control RPC — a deadlock risk (the master may be
  mid-recovery while data ops flow).
* **RL010 — static lock-order graph** over ``RemoteLock``/``SeqLock``/
  slot-lock acquisition sites, with cycle detection: the static twin of
  RSan's happens-before edges.
* **RL011 — exception-flow conformance**: ``Fatal`` errors are
  deterministic and must propagate out of retry loops; a broad
  ``except Exception`` that swallows-and-continues is flagged.
* **RL012 — no hash-ordered simulated work.**  A ``for`` directly over
  a ``set(...)`` / ``frozenset(...)`` / set literal / set comprehension
  visits its elements in hash order, which for ``bytes`` and ``str``
  moves with ``PYTHONHASHSEED``.  If the loop body yields to the
  simulator or posts work (``*_async``, ``post_*``), every number
  downstream changes from run to run.  Dedupe with ``dict.fromkeys``
  or iterate ``sorted(...)``.

RL008 and RL009 are retired ids (folded into RL001 and RL003); the
other rules keep theirs.

Findings print as ``path:line: RLxxx message`` (``--json`` for the
schema CI archives).  Exit codes: 0 clean, 1 findings, 2 empty scope (a
run that checked nothing must not report a clean tree).  Suppress a
deliberate finding with a trailing ``# repro-lint: allow[RLxxx]``
comment on the flagged line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.tools.lint.graph import Program
from repro.tools.lint.program_rules import run_rules
from repro.tools.lint.summary import summarize_source
from repro.tools.source import (
    Violation,
    default_paths,
    iter_python_files,
    load_source,
    tree_root,
)

__all__ = ["LintResult", "Program", "Violation", "add_arguments",
           "default_paths", "lint_paths", "main", "run",
           "summarize_source"]


class LintResult:
    """Everything one run produced."""

    def __init__(self, findings, suppressed, program):
        #: surviving violations, sorted by (path, line, rule); RL000
        #: read/parse failures among them (never suppressible)
        self.findings = findings
        self.suppressed = suppressed
        self.program = program

    def stats(self) -> dict:
        program = self.program
        return {
            "files": len(program.modules),
            "functions": len(program.functions),
            "call_edges": sum(len(e) for e in program.edges.values()),
            "suppressed": self.suppressed,
        }

    def to_json(self) -> dict:
        """The finding schema CI archives (version 2)."""
        return {
            "version": 2,
            "tool": "repro-lint",
            "findings": [
                {"rule": v.rule, "path": v.path, "line": v.line,
                 "message": v.message, "detail": v.detail}
                for v in self.findings
            ],
            "stats": self.stats(),
        }


def lint_paths(paths, root: Path = None) -> LintResult:
    """Check files and directories (recursively) against all rules."""
    summaries, raw = [], []
    for file in iter_python_files(paths):
        source = load_source(file, root=root)
        if source.error is not None:
            raw.append(source.error)
        else:
            summaries.append(summarize_source(source))
    program = Program(summaries)
    for summary in summaries:
        raw.extend(summary["findings"])
    raw.extend(run_rules(program))

    # the one suppression filter: an unparsable file has no summary,
    # hence no allow map — its RL000 cannot be silenced
    allow = {s["rel"]: s["allow"] for s in summaries}
    findings = [v for v in raw
                if v.rule not in allow.get(v.path, {}).get(v.line, ())]
    findings.sort(key=lambda v: (v.path, v.line, v.rule))
    return LintResult(findings, len(raw) - len(findings), program)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/repro, "
                             "examples, benchmarks)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit findings and stats as JSON")


def run(args) -> int:
    # the tree root comes from the package location, not the cwd: a
    # `python -m repro lint` from anywhere still lints this repo
    root = tree_root()
    files = iter_python_files(args.paths or default_paths(root))
    if not files:
        print("repro-lint: no Python files in scope — nothing was "
              "checked (refusing to report a clean tree)",
              file=sys.stderr)
        return 2
    result = lint_paths(files, root=root)
    if args.as_json:
        print(json.dumps(result.to_json(), indent=2))
        return 1 if result.findings else 0
    for violation in result.findings:
        print(violation)
    stats = result.stats()
    notes = (f"{stats['files']} files, {stats['functions']} functions, "
             f"{stats['call_edges']} call edges, "
             f"{stats['suppressed']} suppressed")
    if result.findings:
        print(f"repro-lint: {len(result.findings)} violation(s) ({notes})")
        return 1
    print(f"repro-lint: clean ({notes})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="check repo invariants ruff cannot express",
    )
    add_arguments(parser)
    return run(parser.parse_args(argv))
