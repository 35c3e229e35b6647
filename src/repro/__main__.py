"""Entry point for ``python -m repro``."""

import sys

from repro.tools.cli import main

sys.exit(main(sys.argv[1:]))
