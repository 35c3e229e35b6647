"""The source layer of repro-lint (:mod:`repro.tools.lint`).

The boring-but-load-bearing plumbing: reading files, parsing them,
mapping paths to repo-relative names, finding ``# repro-lint:
allow[RLxxx]`` suppression comments, and printing ``path:line: RLxxx
message`` findings.

Key pieces:

* :class:`Violation` — one finding; ``detail`` lines (e.g. a printed
  call path) render indented under the headline.
* :class:`SourceFile` — one loaded module: text, split lines, parsed
  AST (or the RL000 violation explaining why it would not parse), and
  the per-line ``allow[...]`` suppression map.
* :func:`tree_root` — the repo root resolved from *this package's*
  location, not the invocation cwd, so running the tool from any
  directory still finds (and lints) the tree.
* :func:`default_paths` / :func:`iter_python_files` — the default
  scope (library, examples, benchmarks; tests excluded because
  ``tests/lint`` fixtures *must* violate) and recursive ``*.py``
  discovery.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Optional

__all__ = [
    "Violation",
    "SourceFile",
    "allowed_rules",
    "default_paths",
    "iter_python_files",
    "load_source",
    "tree_root",
]

_ALLOW_RE = re.compile(r"#\s*repro-lint:\s*allow\[([A-Z0-9, ]+)\]")


class Violation:
    """One finding: a file, a line, a rule id, and what went wrong."""

    __slots__ = ("path", "line", "rule", "message", "detail")

    def __init__(self, path: str, line: int, rule: str, message: str,
                 detail: Optional[list] = None):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message
        #: extra context lines (a call path, a cycle), printed indented
        self.detail = list(detail) if detail else []

    def __str__(self) -> str:
        head = f"{self.path}:{self.line}: {self.rule} {self.message}"
        if self.detail:
            head += "".join(f"\n    {line}" for line in self.detail)
        return head


def allowed_rules(line_text: str) -> set:
    """Rule ids a ``# repro-lint: allow[...]`` comment suppresses."""
    match = _ALLOW_RE.search(line_text)
    if match is None:
        return set()
    return {rule.strip() for rule in match.group(1).split(",")}


class SourceFile:
    """One loaded Python source file, parsed at most once."""

    __slots__ = ("path", "rel", "text", "lines", "tree", "error")

    def __init__(self, path: Path, rel: str, text: str = "",
                 tree=None, error: Optional[Violation] = None):
        self.path = path
        self.rel = rel
        self.text = text
        self.lines = text.splitlines()
        self.tree = tree
        #: the RL000 violation if the file could not be read or parsed
        self.error = error

    def allow_map(self) -> dict:
        """``{line_number: {rule, ...}}`` for lines carrying an allow
        comment (only lines that have one appear)."""
        out = {}
        for lineno, text in enumerate(self.lines, 1):
            rules = allowed_rules(text)
            if rules:
                out[lineno] = rules
        return out


def relative_name(path: Path, root: Optional[Path]) -> str:
    try:
        return str(path.relative_to(root)) if root else str(path)
    except ValueError:
        return str(path)


def load_source(path: Path, root: Optional[Path] = None) -> SourceFile:
    """Read and parse one file; parse failures become RL000 errors."""
    rel = relative_name(path, root)
    try:
        text = path.read_text()
    except OSError as exc:
        return SourceFile(path, rel, error=Violation(
            str(path), 1, "RL000", f"unreadable: {exc}"))
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return SourceFile(path, rel, text, error=Violation(
            rel, exc.lineno or 1, "RL000", f"syntax error: {exc.msg}"))
    return SourceFile(path, rel, text, tree=tree)


def tree_root() -> Path:
    """The repo root, resolved from the package location.

    ``src/repro/tools/source.py`` sits three levels below the root, so
    the tools find the tree no matter where they are invoked from.  If
    the package was installed elsewhere (no ``src/repro`` beside it),
    fall back to the invocation cwd.
    """
    root = Path(__file__).resolve().parents[3]
    if (root / "src" / "repro").is_dir():
        return root
    return Path.cwd()


def default_paths(root: Path) -> list:
    """The tree-wide tool scope: library, examples and benchmarks.

    Tests are out of scope by default — ``tests/lint/`` holds fixture
    files that *must* violate the rules.
    """
    return [p for p in (root / "src" / "repro", root / "examples",
                        root / "benchmarks") if p.exists()]


def iter_python_files(paths: list) -> list:
    """Every ``*.py`` under *paths* (dirs recurse), sorted, deduped."""
    seen = set()
    files = []
    for path in paths:
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in candidates:
            if file not in seen:
                seen.add(file)
                files.append(file)
    return files
