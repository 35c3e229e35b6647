"""Per-file extraction: one summary per module, parsed once.

Everything the program rules need from a file is distilled here into
plain dicts — imports, classes (bases, constructed attribute types),
and per-function records of the calls made, control-path sites, lock
acquire/release order, future creation and consumption, raises, and
broad retry-loop catches — and the parsed tree is not looked at again.

The per-file rules (:mod:`repro.tools.lint.file_rules`) are decided
here and their findings travel in the summary's ``findings`` list.
Everything else is raw material for
:mod:`repro.tools.lint.program_rules`.
"""

from __future__ import annotations

import ast
from pathlib import PurePath

from repro.tools.lint.file_rules import (
    CONTROL_METHODS,
    DATA_PATH_SEGMENTS,
    _control_named,
    _dotted,
    _handler_continues,
    _is_async_call,
    _own_nodes,
    _retrying_trys,
    _unwrap_awaitable,
    check_file,
)
from repro.tools.source import SourceFile

__all__ = ["module_name", "summarize_source"]

#: attribute calls that acquire a coordination lock (RL010)
ACQUIRE_METHODS = {"acquire", "try_acquire", "try_lock"}

#: attribute calls that release one (``publish``/``abort`` are the
#: SeqLock write-path exits)
RELEASE_METHODS = {"release", "publish", "abort", "unlock"}

#: handler annotations broad enough to swallow Fatal errors (RL011)
BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def module_name(rel: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/coord/lock.py`` -> ``repro.coord.lock``; files outside
    ``src`` keep their tree position (``tests.lint.coord.fixture``).
    """
    parts = list(PurePath(rel).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or rel


def _resolve_relative(module: str, node: ast.ImportFrom) -> str:
    """Absolute dotted module an ``ImportFrom`` names."""
    if not node.level:
        return node.module or ""
    base = module.split(".")
    # level 1 strips the filename, each extra level one more package
    base = base[: max(0, len(base) - node.level)]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def _collect_imports(tree: ast.AST, module: str) -> dict:
    """Name bindings this module's imports create (incl. nested)."""
    bindings = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    # `import a.b.c` binds `a`, but dotted uses of the
                    # full path resolve through the module index anyway
                    bindings[alias.name.split(".")[0]] = (
                        alias.name.split(".")[0]
                    )
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(module, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                bindings[bound] = f"{target}.{alias.name}" if target \
                    else alias.name
    return bindings


def _first_str_arg(call: ast.Call):
    for arg in call.args:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
    return None


def _ctor_record(value):
    """``{"ctor": dotted, "name": str|None}`` if *value* constructs
    something nameable (``Cls(...)``, ``Cls.create(...)``, possibly
    behind ``yield from`` / ``await``)."""
    call = _unwrap_awaitable(value)
    if call is None:
        return None
    ctor = _dotted(call.func)
    if not ctor:
        return None
    return {"ctor": ctor, "name": _first_str_arg(call)}


def _broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    for node in types:
        text = _dotted(node)
        if text.split(".")[-1] in BROAD_EXCEPTIONS:
            return True
    return False


def _summarize_function(node, qual, cls, control_named):
    calls = []            # [{line, name, recv}]
    call_index = {}       # id(Call) -> index
    control_sites = []    # [{line, name}] control methods, any receiver
    own = [n for n in _own_nodes(node.body)]
    for sub in sorted((n for n in own if isinstance(n, ast.Call)),
                      key=lambda n: (n.lineno, n.col_offset)):
        if isinstance(sub.func, ast.Attribute):
            name = sub.func.attr
            recv = _dotted(sub.func.value)
            if name in CONTROL_METHODS:
                control_sites.append({"line": sub.lineno, "name": name})
        elif isinstance(sub.func, ast.Name):
            name = sub.func.id
            recv = ""
        else:
            continue
        call_index[id(sub)] = len(calls)
        calls.append({"line": sub.lineno, "name": name, "recv": recv})

    # -- reads: every Name load anywhere in the function, nested
    # closures included (a closure consuming a future counts)
    loads = {sub.id for sub in ast.walk(node)
             if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}

    local_types = {}      # var -> {"ctor", "name"}
    future_vars = set()   # vars ever assigned a *_async result
    assigned_calls = []   # [{line, var, index}] calls assigned, never read
    attr_writes = {}      # self.attr -> {"ctor", "name"} (class attrs)

    for sub in own:
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            target = sub.targets[0]
            value = _unwrap_awaitable(sub.value)
            if isinstance(target, ast.Name) and value is not None:
                record = _ctor_record(sub.value)
                if record:
                    local_types[target.id] = record
                if _is_async_call(value):
                    future_vars.add(target.id)
                if id(value) in call_index and target.id not in loads:
                    assigned_calls.append({
                        "line": sub.lineno, "var": target.id,
                        "index": call_index[id(value)],
                    })
            elif (isinstance(target, ast.Attribute)
                  and isinstance(target.value, ast.Name)
                  and target.value.id == "self"):
                record = _ctor_record(sub.value)
                if record:
                    attr_writes[target.attr] = record

    # -- lock event stream, in source order (RL010 raw material)
    events = []
    for index, c in enumerate(calls):
        if c["name"] in ACQUIRE_METHODS and c["recv"] and \
                c["recv"] != "self":
            events.append({"op": "acq", "recv": c["recv"],
                           "line": c["line"]})
        elif c["name"] in RELEASE_METHODS and c["recv"] and \
                c["recv"] != "self":
            events.append({"op": "rel", "recv": c["recv"],
                           "line": c["line"]})
        else:
            events.append({"op": "call", "index": index,
                           "line": c["line"]})

    # -- returns (RL003's interprocedural seed)
    returns_future = False
    return_calls = []
    for sub in own:
        if isinstance(sub, ast.Return) and sub.value is not None:
            value = _unwrap_awaitable(sub.value)
            if value is not None and _is_async_call(value):
                returns_future = True
            elif value is not None and id(value) in call_index:
                return_calls.append(call_index[id(value)])
            elif (isinstance(sub.value, ast.Name)
                  and sub.value.id in future_vars):
                returns_future = True

    # -- bare-expression calls (RL003: a dropped *_async result or a
    # dropped future-returning helper)
    bare_calls = []
    for sub in own:
        if isinstance(sub, ast.Expr):
            value = _unwrap_awaitable(sub.value)
            if value is not None and id(value) in call_index:
                bare_calls.append({"line": sub.lineno,
                                   "index": call_index[id(value)]})

    # -- raises (RL011's interprocedural seed)
    raises = []
    for sub in own:
        if isinstance(sub, ast.Raise) and sub.exc is not None:
            exc = sub.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            text = _dotted(exc)
            if text:
                raises.append(text)

    # -- broad swallowing handlers in retry loops (RL011)
    swallows = []
    for sub in own:
        if not isinstance(sub, (ast.While, ast.For)):
            continue
        for try_stmt in _retrying_trys(sub.body):
            for handler in try_stmt.handlers:
                if not _broad_handler(handler):
                    continue
                if not _handler_continues(handler.body):
                    continue
                if any(isinstance(n, ast.Raise)
                       for n in _own_nodes(handler.body)):
                    continue
                try_call_indices = sorted({
                    call_index[id(n)]
                    for stmt in try_stmt.body
                    for n in ast.walk(stmt)
                    if id(n) in call_index
                })
                swallows.append({
                    "line": handler.lineno,
                    "calls": try_call_indices,
                })

    return {
        "name": node.name,
        "qual": qual,
        "cls": cls,
        "line": node.lineno,
        "control_named": control_named,
        "calls": calls,
        "control_sites": control_sites,
        "local_types": local_types,
        "events": events,
        "returns_future": returns_future,
        "return_calls": return_calls,
        "bare_calls": bare_calls,
        "assigned_calls": assigned_calls,
        "raises": raises,
        "swallows": swallows,
    }, attr_writes


def summarize_source(source: SourceFile) -> dict:
    """The whole-module summary the linker consumes."""
    rel = source.rel
    module = module_name(rel)
    imports = _collect_imports(source.tree, module)
    summary = {
        "rel": rel,
        "module": module,
        "data_path": bool(set(PurePath(rel).parts) & DATA_PATH_SEGMENTS),
        "imports": imports,
        "classes": {},
        "functions": {},
        "findings": check_file(source.tree, rel, imports),
        "allow": source.allow_map(),
    }

    def visit_function(node, prefix, cls, name_stack):
        qual = f"{prefix}{node.name}" if prefix else node.name
        stack = name_stack + [node.name]
        record, attr_writes = _summarize_function(
            node, qual, cls, _control_named(stack))
        summary["functions"][qual] = record
        if cls is not None and attr_writes:
            summary["classes"][cls]["attrs"].update(attr_writes)
        # nested functions wherever they sit (a closure inside a loop
        # or a branch runs the data path as much as a direct child)
        for child in _own_nodes(node.body):
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit_function(child, f"{qual}.", cls, stack)

    def visit_class(node, prefix):
        qual = f"{prefix}{node.name}" if prefix else node.name
        summary["classes"][qual] = {
            "line": node.lineno,
            "bases": [_dotted(b) for b in node.bases if _dotted(b)],
            "attrs": {},
        }
        for child in node.body:
            if isinstance(child, (ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                visit_function(child, f"{qual}.", qual, [])
            elif isinstance(child, ast.ClassDef):
                visit_class(child, f"{qual}.")

    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            visit_function(node, "", None, [])
        elif isinstance(node, ast.ClassDef):
            visit_class(node, "")
    return summary
