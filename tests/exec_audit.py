"""Execution audit: which definitions in ``src/repro`` only tests run.

``tests/test_no_test_only_api.py`` matches *names*, so a test-only method
that shares its name with a live one slips through it.  This script
records which code objects actually run.  It copies the working tree
into a scratch directory, installs a call tracer there as
``src/sitecustomize.py`` (``bench/run.py`` resets its child's
``PYTHONPATH`` to ``src``, so the tracer must live there), and runs two
sets of commands:

* production: every example, the seven ``bench/`` workloads at one
  second, ``benchmarks`` without E8, and the ``repro`` commands CI and
  the README run (``lint --json`` included);
* tests: the tier-1 suite.

A definition is a function or method at module or class level
(``file:qualname``; lambdas, comprehensions and nested functions are
not counted).  The audit fails on any definition that runs nowhere, on
any test-only definition missing from ``tests/exec_audit_allow.txt``,
and on any allow entry that is not test-only any more (production runs
it, nothing runs it, or it is gone).

Run it from the repository root; the traced run takes about twelve
minutes on two cores::

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
import atexit, os, sys
_OUT = os.environ.get("REPRO_AUDIT_DIR")
if _OUT:
    _SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "repro")
    _seen = set()
    def _tracer(frame, event, arg):
        if frame.f_code.co_filename.startswith(_SRC):
            _seen.add(frame.f_code)
        return None                     # call events only, no line tracing
    _settrace = sys.settrace
    # pytest-benchmark pauses instrumentation with settrace(None) around
    # every measured body: keep recording through it
    sys.settrace = lambda f: _settrace(_tracer if f is None else f)
    _settrace(_tracer)
    @atexit.register
    def _dump():
        os.makedirs(_OUT, exist_ok=True)
        with open(os.path.join(_OUT, f"{os.getpid()}.txt"), "w") as out:
            for c in _seen:
                out.write(f"{os.path.relpath(c.co_filename, _SRC)}:"
                          f"{c.co_qualname}\\n")
'''


def production_commands(tree):
    """``(argv, may_fail)`` for every production entry point."""
    py = sys.executable
    commands = [([py, str(path)], False)
                for path in sorted((tree / "examples").glob("*.py"))]
    commands += [([py, "bench/run.py", "--workload", name, "--seconds", "1",
                   "--out", os.devnull], False) for name in WORKLOADS]
    commands.append(([py, "-m", "pytest", "benchmarks", "--benchmark-only",
                      "-q", "-p", "no:cacheprovider", "-k", "not e8_"],
                     False))
    repro = [py, "-m", "repro"]
    commands += [(repro + args, False) for args in (
        ["--help"], ["info"], ["stats"], ["trace"], ["lint"],
        ["lint", "--json"])]
    # CI checks that every lint fixture still fails
    fixtures = subprocess.run(
        [py, "-c", "from tests.lint import FIXTURES; "
                   "print(*FIXTURES.values())"],
        cwd=tree, env=dict(os.environ, PYTHONPATH="src"), check=True,
        stdout=subprocess.PIPE, text=True).stdout.split()
    commands += [(repro + ["lint", fixture], True) for fixture in fixtures]
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
                    "-p", "no:cacheprovider"], False)],
    }
    for name, commands in sets.items():
        env = dict(os.environ, PYTHONPATH="src",
                   REPRO_AUDIT_DIR=str(out / name))
        for argv, may_fail in commands:
            print(f"[{name}] {' '.join(argv[1:])}", flush=True)
            done = subprocess.run(argv, cwd=tree, env=env,
                                  stdout=subprocess.DEVNULL)
            if done.returncode and not may_fail:
                sys.exit(f"exec-audit: {' '.join(argv)} exited "
                         f"{done.returncode}")


def definitions(src=ROOT / "src" / "repro"):
    """``{"file:qualname": lines}`` for every module- or class-level def."""
    found = {}

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                start = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                key = f"{rel}:{prefix}{child.name}"
                found[key] = found.get(key, 0) + child.end_lineno - start + 1
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.relative_to(src).as_posix(),
              "")
    return found


def load_allow(path=ALLOW):
    """``{"file:qualname": reason}``; ``#`` starts a comment line."""
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


def check(out, defs, allow):
    """Print every failure and the summary line; return the failure count."""
    def ran(name):
        return {line for f in glob.glob(str(out / name / "*.txt"))
                for line in Path(f).read_text().split()}

    prod, tests = ran("prod"), ran("tests")
    test_only = sorted(k for k in defs if k in tests and k not in prod)
    nowhere = sorted(k for k in defs if k not in tests and k not in prod)
    failures = [f"runs nowhere: {k}" for k in nowhere]
    failures += [f"only tests run it and it is not allow-listed: {k}"
                 for k in test_only if k not in allow]
    for key in sorted(allow):
        if key not in defs:
            failures.append(f"stale allow entry, no such definition: {key}")
        elif key in prod:
            failures.append(f"stale allow entry, production runs it: {key}")
    for failure in failures:
        print(failure)
    print(f"exec-audit: {len(defs)} definitions, {len(test_only)} test-only "
          f"({sum(defs[k] for k in test_only)} lines), {len(allow)} "
          f"allow-listed, {len(nowhere)} run nowhere "
          f"({sum(defs[k] for k in nowhere)} lines)")
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
        return 1 if check(out, definitions(), allow) else 0
    finally:
        if not (args.keep or args.reuse):
            shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
