"""repro-lint: AST checks for invariants ruff cannot express.

Eight rule families, each guarding a design contract of this repo:

* **RL001 — control-path isolation.**  Data-path modules (any file
  under a ``coord``, ``graph``, ``sort``, ``kv`` or ``txn`` directory)
  must not
  import master/RPC machinery, and may call control-path client
  methods (``alloc``, ``map``, ``lookup``, ``free``, …) only from
  functions whose name marks them as setup/teardown (``create``,
  ``open``, ``load``, ``prepare``, …).  This is the paper's separation
  thesis as a lint rule: steady-state code stays one-sided.
* **RL002 — simulation determinism.**  No wall-clock reads
  (``time.time()`` and friends) and no draws from the process-global
  ``random`` module (or unseeded ``random.Random()`` / numpy
  generators) outside ``simnet/``.  Every source of nondeterminism
  must flow through the simulator's seeded streams, or seeded replay
  breaks.
* **RL003 — no dropped futures.**  A bare expression statement whose
  value is a ``*_async`` call throws the :class:`OpFuture` away:
  nobody will ever observe its error, and (to the race sanitizer) the
  op never happens-before anything.  Store it, await it, or batch it.
* **RL004 — instrument naming.**  Metric and span names follow the
  ``layer.noun_verb`` registry convention with a known first segment,
  so dashboards and ``report.py`` groupers keep working.
* **RL005 — bounded retries.**  A ``while True:`` loop that catches an
  exception and ``continue``\\ s is an unbounded retry: under a
  partition it spins (and keeps the simulation alive) forever.  Every
  retry loop outside ``simnet/`` must be visibly bounded — by a
  deadline, an attempt budget, or a :class:`Backoff` with a deadline —
  or carry an explicit allow comment.
* **RL006 — master endpoints dial through the shard router.**  Since
  the control plane partitioned into metadata shards, the only code
  allowed to name a master's wire endpoint (``config.master_service``)
  is the shard layer itself (``core/shard*.py``) and the master that
  binds it (``core/master.py``).  Everyone else asks the
  :class:`ShardRouter` — otherwise a module silently pins itself to
  shard 0 and breaks under ``control_shards > 1``.
* **RL007 — server-op handlers stay on the data plane.**  Server-side
  executors (``server_*.py`` under a ``datapath`` directory) run
  *inside* a memory server's RPC dispatch on behalf of a remote
  client: one that imports master/RPC/shard machinery or dials a
  control endpoint turns a data op into a hidden control RPC — a
  deadlock risk (the master may be mid-recovery while data ops flow)
  and a violation of the separation thesis at its sharpest point.
* **RL012 — no hash-ordered simulated work.**  A ``for`` directly over
  a ``set(...)`` / ``frozenset(...)`` / set literal / set comprehension
  visits its elements in hash order, which for ``bytes`` and ``str``
  moves with ``PYTHONHASHSEED``.  If the loop body yields to the
  simulator or posts work (``*_async``, ``post_*``), the order of
  simulated events — and every number downstream — changes from run to
  run.  Dedupe with ``dict.fromkeys`` or iterate ``sorted(...)``.

Findings print as ``path:line: RLxxx message``; the process exits
nonzero if any survive.  Suppress a deliberate finding with a trailing
``# repro-lint: allow[RLxxx]`` comment on the flagged line.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

from repro.tools.source import (
    Violation,
    default_paths,
    iter_python_files,
    load_source,
    tree_root,
)

__all__ = ["Violation", "default_paths", "lint_file", "lint_paths", "main"]

#: path segments marking one-sided data-path packages (RL001 scope)
DATA_PATH_SEGMENTS = {"coord", "graph", "sort", "kv", "txn"}

#: imports of these modules are master/RPC machinery (RL001)
FORBIDDEN_IMPORTS = ("repro.rpc", "repro.core.master")

#: method names that are control-path calls on a client/master handle
CONTROL_METHODS = {
    "alloc", "map", "lookup", "free", "resize", "barrier", "notify",
    "wait_note", "list_regions", "alloc_local", "_master_call",
}

#: a function may use the control path if its (or any enclosing
#: function's) name contains one of these tokens — the create/open/
#: setup/teardown vocabulary of this codebase
CONTROL_FUNC_TOKENS = (
    "create", "open", "alloc", "map", "setup", "load", "prepare",
    "boot", "start", "close", "free", "collect", "init", "fetch",
)

#: wall-clock reads on the ``time`` module (RL002)
WALL_CLOCK_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns",
}

#: draws on the process-global ``random`` module (RL002)
RANDOM_DRAWS = {
    "random", "randint", "randrange", "randbytes", "getrandbits",
    "choice", "choices", "shuffle", "sample", "uniform", "gauss",
    "normalvariate", "expovariate", "betavariate", "triangular",
}

#: registry/tracer methods whose first argument is an instrument name
INSTRUMENT_METHODS = {"counter", "gauge", "histogram", "span", "record",
                      "event"}

#: allowed first segments of an instrument name (``layer.noun_verb``)
LAYERS = {
    "app", "client", "control", "coord", "data", "datapath", "graph",
    "kv", "master", "obs", "rnic", "rpc", "rsan", "sim", "sort",
    "span", "txn",
}

#: identifiers mentioning any of these mark a retry loop as bounded
#: (RL005) — deadlines, budgets, attempt counters, Backoff expiry
BOUND_TOKENS = ("deadline", "budget", "attempt", "expired", "remaining",
                "limit")

#: file basenames allowed to touch ``master_service`` directly (RL006):
#: the shard layer that owns endpoint naming, and the master binding it
DIAL_ALLOWED_FILES = ("master.py", "shard")

#: imports forbidden inside server-op executors (RL007): RPC client
#: machinery, the master, and the shard router are all control plane
SERVER_OP_FORBIDDEN_IMPORTS = ("repro.rpc", "repro.core.master",
                               "repro.core.shard")

#: methods a server-op executor may never call (RL007): each one dials
#: or routes to a master
SERVER_OP_FORBIDDEN_CALLS = {"_master_call", "client_for", "connect_all"}

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)+$")
_PREFIX_RE = re.compile(r"^[a-z0-9_.]+$")


def _attr_name(func) -> str:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _dotted(node) -> str:
    """``a.b.c`` for an attribute chain rooted at a Name, else ""."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _handler_continues(stmts) -> bool:
    """True if *stmts* reach a ``continue`` of the enclosing loop.

    Recurses through if/with/try bodies but stops at nested loops and
    function definitions — a ``continue`` in those belongs to them.
    """
    for stmt in stmts:
        if isinstance(stmt, ast.Continue):
            return True
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor,
                             ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for field in ("body", "orelse", "finalbody"):
            if _handler_continues(getattr(stmt, field, [])):
                return True
        if isinstance(stmt, ast.Try):
            if any(_handler_continues(h.body) for h in stmt.handlers):
                return True
    return False


def _retrying_trys(stmts):
    """``try`` statements of one loop body whose handlers continue it."""
    for stmt in stmts:
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor,
                             ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(stmt, ast.Try) and any(
            _handler_continues(handler.body) for handler in stmt.handlers
        ):
            yield stmt
        for field in ("body", "orelse", "finalbody"):
            yield from _retrying_trys(getattr(stmt, field, []))
        if isinstance(stmt, ast.Try):
            for handler in stmt.handlers:
                yield from _retrying_trys(handler.body)


def _mentions_bound(node) -> bool:
    """Any identifier in *node*'s subtree that names a bound."""
    for sub in ast.walk(node):
        text = ""
        if isinstance(sub, ast.Name):
            text = sub.id
        elif isinstance(sub, ast.Attribute):
            text = sub.attr
        elif isinstance(sub, ast.keyword) and sub.arg:
            text = sub.arg
        if text and any(token in text.lower() for token in BOUND_TOKENS):
            return True
    return False


def _is_set_expr(node) -> bool:
    """A set built in place: ``set(..)``/``frozenset(..)``, ``{a, b}``
    or a set comprehension."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset"))


def _does_simulated_work(stmts) -> bool:
    """True if *stmts* yield to the simulator or post work, outside any
    nested function definition."""
    todo = list(stmts)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if isinstance(node, ast.Call):
            name = _attr_name(node.func)
            if name.endswith("_async") or name.startswith("post_"):
                return True
        todo.extend(ast.iter_child_nodes(node))
    return False


def _unwrap_awaitable(node):
    """The call inside ``await x()`` / ``yield from x()`` / ``x()``."""
    if isinstance(node, ast.Await):
        return _unwrap_awaitable(node.value)
    if isinstance(node, (ast.YieldFrom, ast.Yield)):
        return _unwrap_awaitable(node.value) if node.value else None
    if isinstance(node, ast.Call):
        return node
    return None


class _Checker(ast.NodeVisitor):
    def __init__(self, path: Path, rel: str):
        self.rel = rel
        parts = set(path.parts)
        self.data_path = bool(parts & DATA_PATH_SEGMENTS)
        self.in_simnet = "simnet" in parts
        self.may_dial_master = (path.name == "config.py"
                                or path.name.startswith(DIAL_ALLOWED_FILES))
        #: a server-op executor module (RL007 scope)
        self.dp_server = ("datapath" in parts
                          and path.name.startswith("server_"))
        self.func_stack: list[str] = []
        self.violations: list[Violation] = []

    def flag(self, node, rule: str, message: str):
        self.violations.append(
            Violation(self.rel, getattr(node, "lineno", 1), rule, message)
        )

    # -- function context -----------------------------------------------------

    def visit_FunctionDef(self, node):
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def _in_control_func(self) -> bool:
        return any(
            token in name.lower()
            for name in self.func_stack
            for token in CONTROL_FUNC_TOKENS
        )

    # -- RL001: imports -------------------------------------------------------

    def visit_Import(self, node):
        if self.data_path:
            for alias in node.names:
                if alias.name.startswith(FORBIDDEN_IMPORTS):
                    self.flag(node, "RL001",
                              f"data-path module imports {alias.name!r} "
                              "(master/RPC machinery)")
        if self.dp_server:
            for alias in node.names:
                if alias.name.startswith(SERVER_OP_FORBIDDEN_IMPORTS):
                    self.flag(node, "RL007",
                              f"server-op executor imports {alias.name!r} "
                              "— handlers run inside RPC dispatch and must "
                              "never reach the control plane")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if self.data_path and node.module:
            if node.module.startswith(FORBIDDEN_IMPORTS):
                self.flag(node, "RL001",
                          f"data-path module imports from {node.module!r} "
                          "(master/RPC machinery)")
        if self.dp_server and node.module:
            if node.module.startswith(SERVER_OP_FORBIDDEN_IMPORTS):
                self.flag(node, "RL007",
                          f"server-op executor imports from "
                          f"{node.module!r} — handlers run inside RPC "
                          "dispatch and must never reach the control plane")
        self.generic_visit(node)

    # -- RL005: unbounded retry loops ----------------------------------------

    def visit_While(self, node):
        forever = isinstance(node.test, ast.Constant) and node.test.value
        if forever and not self.in_simnet and not _mentions_bound(node):
            for stmt in _retrying_trys(node.body):
                self.flag(stmt, "RL005",
                          "unbounded retry: `while True` catches and "
                          "continues with no deadline, budget, or attempt "
                          "bound in sight — a partition spins this loop "
                          "forever")
        self.generic_visit(node)

    # -- RL012: hash-ordered iteration around simulated work -----------------

    def visit_For(self, node):
        if _is_set_expr(node.iter) and _does_simulated_work(node.body):
            self.flag(node, "RL012",
                      "iterates a set around a yield or a posted op — the "
                      "visit order (hence the simulated event order) "
                      "moves with PYTHONHASHSEED; dedupe with "
                      "dict.fromkeys(...) or iterate sorted(...)")
        self.generic_visit(node)

    # -- RL006: direct master endpoint naming --------------------------------

    def visit_Attribute(self, node):
        if node.attr == "master_service" and not self.may_dial_master:
            self.flag(node, "RL006",
                      "names the master wire endpoint (.master_service) "
                      "directly — dial through the ShardRouter so the call "
                      "reaches the owning metadata shard")
        self.generic_visit(node)

    # -- RL003: dropped futures ----------------------------------------------

    def visit_Expr(self, node):
        call = _unwrap_awaitable(node.value)
        if call is not None:
            name = _attr_name(call.func)
            if name.endswith("_async"):
                self.flag(node, "RL003",
                          f"result of {name}() is discarded — the future "
                          "must be stored, awaited, or batched")
        self.generic_visit(node)

    # -- calls: RL001 / RL002 / RL004 ----------------------------------------

    def visit_Call(self, node):
        name = _attr_name(node.func)
        dotted = _dotted(node.func)

        # RL001: control-path calls from steady-state data-path code
        if (self.data_path and name in CONTROL_METHODS
                and isinstance(node.func, ast.Attribute)
                and not self._in_control_func()):
            where = (f"function {self.func_stack[-1]!r}" if self.func_stack
                     else "module level")
            self.flag(node, "RL001",
                      f"control-path call .{name}() from {where} — move it "
                      "into a create/open/setup-style function")

        # RL007: server-op executors must not dial the control plane
        if self.dp_server and name in SERVER_OP_FORBIDDEN_CALLS:
            self.flag(node, "RL007",
                      f"server-op executor calls {name}() — handlers run "
                      "inside RPC dispatch; dialing masters or opening "
                      "channels from there is a hidden control RPC and a "
                      "deadlock risk")

        # RL002: nondeterminism outside simnet/
        if not self.in_simnet:
            root, _, leaf = dotted.rpartition(".")
            if root == "time" and leaf in WALL_CLOCK_FUNCS:
                self.flag(node, "RL002",
                          f"wall-clock read {dotted}() — use the simulated "
                          "clock (sim.now)")
            elif root == "random" and leaf in RANDOM_DRAWS:
                self.flag(node, "RL002",
                          f"draw from the process-global RNG {dotted}() — "
                          "use a seeded stream (simnet.rand.derive_rng)")
            elif dotted == "random.Random" and not node.args:
                self.flag(node, "RL002",
                          "unseeded random.Random() — pass an explicit "
                          "seed derived from the config")
            elif leaf == "default_rng" and not node.args:
                self.flag(node, "RL002",
                          "unseeded numpy default_rng() — pass an explicit "
                          "seed derived from the config")
            elif ((root.endswith("np.random") or root == "numpy.random")
                    and leaf != "default_rng"):
                self.flag(node, "RL002",
                          f"draw from numpy's global RNG {dotted}() — use "
                          "a seeded Generator")

        # RL004: instrument naming
        if name in INSTRUMENT_METHODS and isinstance(node.func,
                                                     ast.Attribute):
            self._check_instrument_name(node)

        self.generic_visit(node)

    def _check_instrument_name(self, node):
        if not node.args:
            return
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            self._check_name_text(node, first.value, full=True)
        elif isinstance(first, ast.JoinedStr) and first.values:
            lead = first.values[0]
            if isinstance(lead, ast.Constant) and isinstance(lead.value, str):
                # an f-string: validate the leading constant prefix only
                self._check_name_text(node, lead.value, full=False)
            else:
                # the f-string *starts* with a FormattedValue: the layer
                # prefix is fully dynamic and cannot be checked at all —
                # unverifiable unless an allow comment vouches for it
                self.flag(node, "RL004",
                          "instrument name is an f-string with a fully "
                          "dynamic prefix — the layer segment cannot be "
                          "verified; start with a constant "
                          "'layer.' prefix or add an allow comment")

    def _check_name_text(self, node, text: str, full: bool):
        ok = (_NAME_RE.fullmatch(text) if full
              else _PREFIX_RE.fullmatch(text) and "." in text)
        segment = text.split(".", 1)[0]
        if not ok:
            self.flag(node, "RL004",
                      f"instrument name {text!r} does not follow the "
                      "layer.noun_verb convention")
        elif segment not in LAYERS:
            self.flag(node, "RL004",
                      f"instrument name {text!r} starts with unknown layer "
                      f"{segment!r} (known: {', '.join(sorted(LAYERS))})")


def lint_file(path: Path, root: Path = None) -> list[Violation]:
    """Lint one Python file; returns its surviving violations."""
    source = load_source(path, root=root)
    if source.error is not None:
        return [source.error]
    checker = _Checker(path, source.rel)
    checker.visit(source.tree)
    return [v for v in checker.violations if not source.suppressed(v)]


def lint_paths(paths: list[Path], root: Path = None) -> list[Violation]:
    """Lint files and directories (recursively); returns all findings."""
    violations: list[Violation] = []
    for file in iter_python_files(paths):
        violations.extend(lint_file(file, root=root))
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="check repo invariants ruff cannot express",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: src/repro, "
                             "examples, benchmarks)")
    args = parser.parse_args(argv)
    # the tree root comes from the package location, not the cwd: a
    # `python -m repro lint` from anywhere still lints this repo
    root = tree_root()
    paths = args.paths or default_paths(root)
    if not iter_python_files(paths):
        print("repro-lint: no Python files in scope — nothing was "
              "checked (refusing to report a clean tree)",
              file=sys.stderr)
        return 2
    violations = lint_paths(paths, root=root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"repro-lint: {len(violations)} violation(s)")
        return 1
    print("repro-lint: clean")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    sys.exit(main())
