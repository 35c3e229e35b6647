"""The per-file rules, decided from one module: RL001's forbidden
imports, RL002, RL004-RL007 and RL012.

Each needs nothing beyond the file's own AST, its tree-relative path
and its import bindings, so :func:`repro.tools.lint.summary.summarize_source`
runs :func:`check_file` while it extracts the summary and the findings
travel in the summary's ``findings`` list.  RL001's control calls and
all of RL003 are program rules (:mod:`.program_rules`).  The AST
helpers the summary extraction shares (``_dotted``, ``_own_nodes``,
``_retrying_trys`` ...) live here too, written once.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath

from repro.tools.source import Violation

__all__ = ["check_file"]

#: path segments marking one-sided data-path packages (RL001 scope)
DATA_PATH_SEGMENTS = {"coord", "graph", "sort", "kv", "txn"}

#: imports of these modules are master/RPC machinery (RL001)
FORBIDDEN_IMPORTS = ("repro.rpc", "repro.core.master")

#: method names that are control-path calls on a client/master handle
CONTROL_METHODS = {
    "alloc", "map", "lookup", "free", "barrier", "notify", "wait_note",
    "list_regions", "alloc_local", "_master_call",
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


def _own_nodes(body):
    """DFS over statements/expressions of one function, not entering
    nested function or class definitions."""
    stack = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _is_async_call(call: ast.Call) -> bool:
    return _attr_name(call.func).endswith("_async")


def _does_simulated_work(stmts) -> bool:
    """True if *stmts* yield to the simulator or post work."""
    return any(
        isinstance(node, (ast.Yield, ast.YieldFrom))
        or (isinstance(node, ast.Call)
            and (_is_async_call(node)
                 or _attr_name(node.func).startswith("post_")))
        for node in _own_nodes(stmts))


def _control_named(name_stack) -> bool:
    """A function may use the control path if its own or any enclosing
    function's name carries a create/open/setup/teardown token."""
    return any(token in name.lower()
               for name in name_stack
               for token in CONTROL_FUNC_TOKENS)


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
    def __init__(self, rel: str, imports: dict):
        self.rel = rel
        #: the module's import bindings (name -> absolute dotted target)
        self.imports = imports
        path = PurePath(rel)
        parts = set(path.parts)
        self.data_path = bool(parts & DATA_PATH_SEGMENTS)
        self.in_simnet = "simnet" in parts
        #: the simulated clock's one writer (RL002)
        self.is_kernel = path.parts[-2:] == ("simnet", "kernel.py")
        self.may_dial_master = (path.name == "config.py"
                                or path.name.startswith(DIAL_ALLOWED_FILES))
        #: a server-op executor module (RL007 scope)
        self.dp_server = ("datapath" in parts
                          and path.name.startswith("server_"))
        self.violations: list[Violation] = []

    def flag(self, node, rule: str, message: str):
        self.violations.append(
            Violation(self.rel, getattr(node, "lineno", 1), rule, message)
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

    # -- RL006: direct master endpoint naming; RL002: the clock's writer ----

    def visit_Attribute(self, node):
        if node.attr == "master_service" and not self.may_dial_master:
            self.flag(node, "RL006",
                      "names the master wire endpoint (.master_service) "
                      "directly — dial through the ShardRouter so the call "
                      "reaches the owning metadata shard")
        if (node.attr == "now" and isinstance(node.ctx, ast.Store)
                and not self.is_kernel):
            self.flag(node, "RL002",
                      "assigns .now — the simulated clock moves only as "
                      "the kernel (simnet/kernel.py) runs its queue")
        self.generic_visit(node)

    # -- calls: RL007 / RL002 / RL004 ----------------------------------------

    def visit_Call(self, node):
        name = _attr_name(node.func)
        dotted = _dotted(node.func)

        # RL007: server-op executors must not dial the control plane
        if self.dp_server and name in SERVER_OP_FORBIDDEN_CALLS:
            self.flag(node, "RL007",
                      f"server-op executor calls {name}() — handlers run "
                      "inside RPC dispatch; dialing masters or opening "
                      "channels from there is a hidden control RPC and a "
                      "deadlock risk")

        # RL002: nondeterminism outside simnet/
        if not self.in_simnet:
            # through the import bindings, so `from time import
            # perf_counter` and `import random as r` are the same callee
            head, dot, rest = dotted.partition(".")
            dotted = self.imports.get(head, head) + dot + rest
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


def check_file(tree: ast.AST, rel: str, imports: dict) -> list:
    """The per-file rules' findings for one parsed module."""
    checker = _Checker(rel, imports)
    checker.visit(tree)
    return checker.violations
