"""Tier-1 suite configuration: the session memory guard.

A finished simulation must be garbage, so the whole suite fits one
modest process.  Every session under ``tests/`` prints its peak
resident memory when it ends and fails above ``PEAK_RSS_LIMIT_MB`` — a
session that outgrows the limit is retaining simulators again.  (The
guard lives here, not in the root conftest: ``pytest benchmarks`` runs
paper-scale experiments that legitimately need more.)
"""

import resource
import sys

#: tier-1 peaks near 1.2 GB; the OOM this guards against grew past 15 GB
PEAK_RSS_LIMIT_MB = 2048


def pytest_sessionfinish(session):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is bytes on macOS, KiB everywhere else
    peak_mb = peak / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    line = f"peak RSS: {peak_mb:.0f} MB (limit {PEAK_RSS_LIMIT_MB} MB)"
    if peak_mb > PEAK_RSS_LIMIT_MB:
        line += " - exceeded: the session retains finished simulations"
        if session.exitstatus == 0:
            session.exitstatus = 1
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None:
        reporter.write_line("")  # end the progress line
        reporter.write_line(line)
