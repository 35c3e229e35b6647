"""Execution audit: what in ``src/repro`` only tests run or move.

``tests/test_no_test_only_api.py`` matches *names*, so a test-only method
that shares its name with a live one slips through it.  This script
records which code objects actually run, and which of their defaulted
parameters a call sets to anything but the default.  It copies the
working tree into a scratch directory, installs a call tracer there as
``src/sitecustomize.py`` (``bench/run.py`` resets its child's
``PYTHONPATH`` to ``src``, so the tracer must live there), and runs two
sets of commands:

* production: every example, the seven ``bench/`` workloads at one
  second, ``benchmarks`` without E8, and the ``repro`` commands CI and
  the README run (``lint --json`` included);
* tests: the tier-1 suite.

A definition is a function or method at module or class level
(``file:qualname``; lambdas, comprehensions and nested functions are
not counted); a parameter is one of its parameters with a default
(``file:qualname(param)``).  A call moves a parameter when the value it
binds is neither the default object nor of the default's type and
equal to it.  Only a call's first entry counts: a generator re-enters
its frame on every resume, when its body may have reassigned the
parameter.  The audit fails on any definition that runs nowhere, on
any test-only definition, and on any parameter that only tests or
nothing move, missing from ``tests/exec_audit_allow.txt``, and on any
allow entry that is not test-only any more (production runs or moves
it) or that is gone.

``pytest benchmarks`` exiting 1 does not stop the trace: an
experiment's assertion failed after its code ran, so the trace counts.

Run it from the repository root; the traced run takes about half an
hour on two cores::

    python tests/exec_audit.py                  # trace and check
    python tests/exec_audit.py --keep DIR       # also keep the traces
    python tests/exec_audit.py --reuse DIR      # check kept traces again

Its last line is the summary that CI copies into the job summary.
"""

import argparse
import ast
import glob
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALLOW = Path(__file__).resolve().parent / "exec_audit_allow.txt"
WORKLOADS = ("raw_small", "bulk_stream", "kv_read_onesided",
             "kv_update_adaptive", "kv_read_sanitized", "control_churn",
             "txn_bank")

TRACER = '''\
import atexit, dis, os, sys
_OUT = os.environ.get("REPRO_AUDIT_DIR")
if _OUT:
    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "repro")
    _seen = set()
    _moved = set()
    _knobs = {}     # code -> (entry offset, [(param, default)]) or None

    def _function(frame):
        # the module- or class-level function that owns the frame's code
        code, obj = frame.f_code, frame.f_globals
        for part in code.co_qualname.split("."):
            obj = (obj if isinstance(obj, dict) else
                   getattr(obj, "__dict__", {})).get(part)
        todo = [obj]
        while todo:
            obj = todo.pop()
            if getattr(obj, "__code__", None) is code:
                return obj
            todo += [getattr(obj, a) for a in ("__func__", "__wrapped__",
                                               "fget", "fset", "fdel", "func")
                     if getattr(obj, a, None) is not None]
        return None

    def _knobs_of(frame):
        code = frame.f_code
        func = None if "<locals>" in code.co_qualname else _function(frame)
        if func is None:
            return None
        pos = code.co_varnames[:code.co_argcount]
        defaults = list(zip(pos[len(pos) - len(func.__defaults__ or ()):],
                            func.__defaults__ or ()))
        defaults += list((func.__kwdefaults__ or {}).items())
        if not defaults:
            return None
        # a generator re-enters on every resume, with its body's locals:
        # only the entry at the first RESUME is the call
        entry = next((i.offset for i in dis.get_instructions(code)
                      if i.opname == "RESUME"), -1)
        return entry, defaults

    def _differs(value, default):
        if value is default:
            return False
        try:
            return type(value) is not type(default) or not bool(
                value == default)
        except Exception:
            return True

    def _tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(_SRC):
            _seen.add(code)
            try:
                knobs = _knobs[code]
            except KeyError:
                knobs = _knobs[code] = _knobs_of(frame)
            if knobs and frame.f_lasti <= knobs[0]:
                values, unmoved = frame.f_locals, knobs[1]
                for knob in list(unmoved):
                    if _differs(values[knob[0]], knob[1]):
                        _moved.add((code, knob[0]))
                        unmoved.remove(knob)
                if not unmoved:
                    _knobs[code] = None
        return None                     # call events only, no line tracing
    _settrace = sys.settrace
    # pytest-benchmark pauses instrumentation with settrace(None) around
    # every measured body: keep recording through it
    sys.settrace = lambda f: _settrace(_tracer if f is None else f)
    _settrace(_tracer)

    def _key(code):
        return f"{os.path.relpath(code.co_filename, _SRC)}:{code.co_qualname}"

    @atexit.register
    def _dump():
        os.makedirs(_OUT, exist_ok=True)
        with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "w") as out:
            for c in _seen:
                out.write(f"{_key(c)}\\n")
            for c, param in _moved:
                out.write(f"{_key(c)}({param})\\n")
'''


def production_commands(tree):
    """``(argv, accepted exit codes)`` for every production entry point;
    ``None`` accepts any."""
    py = sys.executable
    commands = [([py, str(path)], {0})
                for path in sorted((tree / "examples").glob("*.py"))]
    commands += [([py, "bench/run.py", "--workload", name, "--seconds", "1",
                   "--out", os.devnull], {0}) for name in WORKLOADS]
    # pytest exits 1 when an experiment's assertion fails: its code ran to
    # that assertion, so the trace counts; 2 and up mean it did not run
    commands.append(([py, "-m", "pytest", "benchmarks", "--benchmark-only",
                      "-q", "-p", "no:cacheprovider", "-k", "not e8_"],
                     {0, 1}))
    repro = [py, "-m", "repro"]
    commands += [(repro + args, {0}) for args in (
        ["--help"], ["info"], ["stats"], ["trace"], ["lint"],
        ["lint", "--json"])]
    # CI checks that every lint fixture still fails
    fixtures = subprocess.run(
        [py, "-c", "from tests.lint import FIXTURES; "
                   "print(*FIXTURES.values())"],
        cwd=tree, env=dict(os.environ, PYTHONPATH="src"), check=True,
        stdout=subprocess.PIPE, text=True).stdout.split()
    commands += [(repro + ["lint", fixture], None) for fixture in fixtures]
    return commands


def trace(out):
    """Copy the tree, run both sets traced, leave traces under ``out``."""
    for stale in ("tree", "prod", "tests"):
        shutil.rmtree(out / stale, ignore_errors=True)
    tree = out / "tree"
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout.decode()
    for rel in filter(None, listed.split("\0")):
        source = ROOT / rel
        if source.is_file():
            (tree / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, tree / rel)
    (tree / "src" / "sitecustomize.py").write_text(TRACER)
    sets = {
        "prod": production_commands(tree),
        "tests": [([sys.executable, "-m", "pytest", "-x", "-q",
                    "-p", "no:cacheprovider"], {0})],
    }
    for name, commands in sets.items():
        env = dict(os.environ, PYTHONPATH="src",
                   REPRO_AUDIT_DIR=str(out / name))
        for argv, accepted in commands:
            print(f"[{name}] {' '.join(argv[1:])}", flush=True)
            code = subprocess.run(argv, cwd=tree, env=env,
                                  stdout=subprocess.DEVNULL).returncode
            if accepted is not None and code not in accepted:
                sys.exit(f"exec-audit: {' '.join(argv)} exited {code}")
            if code and accepted == {0, 1}:
                print(f"[{name}] exited {code}: an assertion failed after "
                      "the code ran, so its trace counts", flush=True)


def declared(src=ROOT / "src" / "repro"):
    """``({"file:qualname": lines}, {"file:qualname(param)"})`` for every
    module- or class-level def and each of its defaulted parameters."""
    found, params = {}, set()

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                key = f"{rel}:{prefix}{child.name}"
                found[key] = found.get(key, 0) + child.end_lineno - start + 1
                args = child.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs,
                                                args.kw_defaults) if d]
                params.update(f"{key}({a.arg})" for a in defaulted)
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(src).as_posix(),
              "")
    return found, params


def load_allow(path=ALLOW):
    """``{"file:qualname": reason}``, parameters as
    ``"file:qualname(param)"``; ``#`` starts a comment line."""
    allow = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, _, reason = line.strip().partition(" ")
        if not reason.strip():
            sys.exit(f"exec-audit: {path.name}:{number}: {key} has no reason")
        if key in allow:
            sys.exit(f"exec-audit: {path.name}:{number}: {key} listed twice")
        allow[key] = reason.strip()
    return allow


def check(out, defs, allow, params=frozenset()):
    """Print every failure and the summary line; return the failure count.

    ``out`` holds the ``prod`` and ``tests`` trace directories.  A
    parameter counts as moved when a call's first entry saw a value
    other than its default.
    """
    def ran(name):
        return {line for f in glob.glob(str(out / name / "*.txt"))
                for line in Path(f).read_text().split()}

    prod, tests = ran("prod"), ran("tests")
    test_only = sorted(k for k in defs if k in tests and k not in prod)
    nowhere = sorted(k for k in defs if k not in tests and k not in prod)
    knob_test_only = sorted(p for p in params if p in tests and p not in prod)
    knob_unmoved = sorted(p for p in params if p not in tests and p not in prod)
    failures = [f"runs nowhere: {k}" for k in nowhere]
    failures += [f"only tests run it and it is not allow-listed: {k}"
                 for k in test_only if k not in allow]
    failures += [f"only tests move this parameter and it is not "
                 f"allow-listed: {p}" for p in knob_test_only
                 if p not in allow]
    failures += [f"nothing moves this parameter from its default and it is "
                 f"not allow-listed: {p}" for p in knob_unmoved
                 if p not in allow]
    for key in sorted(allow):
        if "(" in key:
            if key not in params:
                failures.append(f"stale allow entry, no such parameter: "
                                f"{key}")
            elif key in prod:
                failures.append(f"stale allow entry, production moves it: "
                                f"{key}")
        elif key not in defs:
            failures.append(f"stale allow entry, no such definition: {key}")
        elif key in prod:
            failures.append(f"stale allow entry, production runs it: {key}")
    for failure in failures:
        print(failure)
    print(f"exec-audit: {len(defs)} definitions, {len(test_only)} test-only "
          f"({sum(defs[k] for k in test_only)} lines), "
          f"{sum('(' not in k for k in allow)} allow-listed, {len(nowhere)} "
          f"run nowhere ({sum(defs[k] for k in nowhere)} lines); "
          f"{len(params)} defaulted parameters, "
          f"{len(knob_test_only)} test-only, {len(knob_unmoved)} moved by "
          f"nothing, {sum('(' in k for k in allow)} allow-listed")
    return len(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", type=Path,
                        help="trace into this directory and keep it")
    parser.add_argument("--reuse", type=Path,
                        help="check the traces a --keep run left here")
    args = parser.parse_args(argv)
    allow = load_allow()
    out = args.reuse or args.keep or Path(tempfile.mkdtemp(prefix="exec-audit-"))
    try:
        if not args.reuse:
            trace(out.resolve())
        defs, params = declared()
        return 1 if check(out, defs, allow, params) else 0
    finally:
        if not (args.keep or args.reuse):
            shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
