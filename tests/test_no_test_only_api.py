"""Nothing in ``src/repro`` lives for tests alone.

Every class, function and method defined at module or class level in
``src/repro`` must be named by code outside ``tests/``: by ``src/``,
``benchmarks/``, ``examples/`` or ``bench/``.  A definition that only
tests name fails here with its file, line and qualified name; delete it,
or give it a production caller and let the test read state the way
production does (``obs.metrics.series(name)``, or a helper in
``tests/probes.py``).

The scan is name-based and works on the AST, not on tokens, so an
attribute read inside an f-string counts.  A *use* is an ``ast.Name``,
an ``ast.Attribute`` or a string constant that is a bare identifier
(``getattr(obj, "name")``).  Imports, ``__all__`` and a definition's own
body are not uses.  It iterates to a fixpoint: a definition whose only
users are dead definitions is dead too.

Exempt are dunder methods, the roots that are dispatched by name,
derived from their registrations (the RPC handlers a master and a
memory server register, ``cmd_<name>`` for each CLI subcommand, and
``visit_*`` on ``ast.NodeVisitor`` subclasses), and the definitions
``tests/exec_audit_allow.txt`` keeps for tests with a reason, which is
the one hand-kept list of exemptions.
"""

import argparse
import ast
import inspect
from pathlib import Path

from tests.exec_audit import load_allow

ROOT = Path(__file__).resolve().parent.parent
DEFINERS = ("src/repro",)
READERS = ("src", "benchmarks", "examples", "bench")

#: the definitions the execution audit's allow list keeps for tests,
#: with a reason (its ``file:qualname(param)`` entries name parameters)
HAND_EXEMPT = {(f"src/repro/{path}", qualname) for path, _, qualname in
               (key.partition(":") for key in load_allow()
                if "(" not in key)}

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class _Definition:
    """One class, function or method; hashed by identity."""

    __slots__ = ("path", "line", "qualname", "name", "bases")

    def __init__(self, path, line, qualname, name, bases):
        self.path, self.line = path, line
        self.qualname, self.name, self.bases = qualname, name, bases


def _is_all(node):
    """``__all__ = ...`` (or ``+=``): its names are exports, not uses."""
    if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
        return False
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return any(getattr(t, "id", None) == "__all__" for t in targets)


def _walk_file(path, rel, definer, definitions, uses):
    """Collect one file's definitions and its uses.

    Each use is ``(name, scope)``, where ``scope`` is the tuple of
    definitions whose body holds it.
    """

    def record(node, scope):
        if isinstance(node, ast.Name):
            uses.append((node.id, scope))
        elif isinstance(node, ast.Attribute):
            uses.append((node.attr, scope))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            uses.append((node.value, scope))

    def visit(node, scope, prefix, in_function):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
            return
        children = ast.iter_child_nodes(node)
        if isinstance(node, _DEF_NODES):
            qualname = prefix + node.name
            if definer and not in_function:
                bases = [getattr(b, "attr", getattr(b, "id", None))
                         for b in getattr(node, "bases", ())]
                definition = _Definition(rel, node.lineno, qualname,
                                         node.name, bases)
                definitions.append(definition)
                scope += (definition,)
            for deco in node.decorator_list:
                # ``@name.setter`` is not a use of the getter ``name``
                for part in ast.walk(deco):
                    if getattr(part, "id", None) != node.name:
                        record(part, scope)
            children = [c for c in children if c not in node.decorator_list]
            prefix = qualname + "."
            in_function = in_function or not isinstance(node, ast.ClassDef)
        else:
            record(node, scope)
        for child in children:
            visit(child, scope, prefix, in_function)

    visit(ast.parse(path.read_text(), filename=str(path)), (), "", False)


def scan(root=ROOT, definers=DEFINERS, readers=READERS, exempt=frozenset()):
    """Definitions under ``definers`` that nothing under ``readers`` uses.

    ``definers`` lie inside ``readers``.  Returns ``(flagged, total)``:
    the flagged definitions as ``(path, line, qualname)`` sorted by path
    and line, outermost only (a dead class's methods are not listed
    again), and the number of definitions scanned.  ``exempt`` holds
    ``(path, qualname)`` pairs.
    """
    root = Path(root)
    definitions, uses = [], []
    for top in readers:
        for path in sorted((root / top).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            definer = any(rel.startswith(d + "/") for d in definers)
            _walk_file(path, rel, definer, definitions, uses)

    visitors = {"NodeVisitor"}
    while True:
        more = {d.name for d in definitions if visitors.intersection(d.bases)}
        if more <= visitors:
            break
        visitors |= more
    candidates = [
        d for d in definitions
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and (d.path, d.qualname) not in exempt
        and not (d.name.startswith("visit_")
                 and d.qualname.rpartition(".")[0].rpartition(".")[2]
                 in visitors)
    ]
    scopes_of = {}
    for name, scope in uses:
        scopes_of.setdefault(name, []).append(scope)
    # a use counts if it lies outside the definition's own body and
    # inside no dead definition; iterate until no more die
    dead = set()
    grown = True
    while grown:
        grown = False
        for definition in candidates:
            if definition not in dead and not any(
                    definition not in scope and dead.isdisjoint(scope)
                    for scope in scopes_of.get(definition.name, ())):
                dead.add(definition)
                grown = True
    flagged = [
        (d.path, d.line, d.qualname) for d in dead
        if not any(d.path == o.path and d.qualname.startswith(o.qualname + ".")
                   for o in dead)
    ]
    return sorted(flagged), len(definitions)


def dispatch_roots():
    """``(path, qualname)`` of every definition dispatched by name."""
    from repro.cluster import build_cluster
    from repro.tools import cli

    roots = set()
    cluster = build_cluster(num_machines=2)
    for endpoint in (cluster.master, cluster.servers[1]):
        for handler in endpoint._rpc._handlers.values():
            func = inspect.unwrap(handler)
            func = getattr(func, "__func__", func)  # a bound method
            path = Path(inspect.getsourcefile(func)).resolve()
            roots.add((path.relative_to(ROOT).as_posix(), func.__qualname__))
    parser = cli.build_parser()
    cli_path = Path(inspect.getsourcefile(cli)).resolve()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command in action.choices:
                roots.add((cli_path.relative_to(ROOT).as_posix(),
                           f"cmd_{command}"))
    return roots


def test_nothing_in_src_repro_is_named_only_by_tests():
    flagged, total = scan(exempt=dispatch_roots() | HAND_EXEMPT)
    assert total > 0
    assert not flagged, (
        "defined in src/repro but named only by tests/ - delete it, or "
        "give it a production caller:\n"
        + "\n".join(f"{path}:{line}: {name}" for path, line, name in flagged)
    )


def test_a_planted_unused_method_is_named(tmp_path):
    """A synthetic tree: a self-calling method, an export named only in
    ``__all__`` and a two-link dead chain are named; a getattr string,
    an f-string read, a visitor method and an exempt root are not."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text(
        "from pkg.mod import Store\n__all__ = ['Store', 'helper']\n")
    (pkg / "mod.py").write_text(
        "import ast\n"
        "\n"
        "class Store:\n"
        "    def __init__(self):\n"
        "        self.hits = 0\n"
        "\n"
        "    def get(self, key):\n"
        "        return self._lookup(key)\n"
        "\n"
        "    def _lookup(self, key):\n"
        "        return getattr(self, 'hits')\n"
        "\n"
        "    def planted(self):\n"
        "        return self.planted()\n"
        "\n"
        "    @property\n"
        "    def shown(self):\n"
        "        return 1\n"
        "\n"
        "\n"
        "class Walker(ast.NodeVisitor):\n"
        "    def visit_Name(self, node):\n"
        "        pass\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def used_by_chain_head():\n"
        "    return 2\n"
        "\n"
        "\n"
        "def chain_head():\n"
        "    return used_by_chain_head()\n"
        "\n"
        "\n"
        "def cmd_run():\n"
        "    return 0\n"
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from pkg import Store\n"
        "from pkg.mod import Walker\n"
        "store = Store()\n"
        "print(f'{store.get(1)} {store.shown}')\n"
        "Walker()\n"
    )
    flagged, total = scan(
        tmp_path, definers=("src/pkg",), readers=("src", "examples"),
        exempt={("src/pkg/mod.py", "cmd_run")})
    assert total == 12
    assert [name for _, _, name in flagged] == [
        "Store.planted", "helper", "used_by_chain_head", "chain_head"], flagged
    assert [(path, line) for path, line, _ in flagged][0] == \
        ("src/pkg/mod.py", 13)
