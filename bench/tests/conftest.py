"""``bench/`` is a directory of scripts, not a package: put it (and the
simulator) on the path the way ``run.py`` and ``child.py`` see them."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
