"""The per-simulation observability context.

Components are built from many call sites (the cluster builder, bare
RDMA tests, coordination primitives), so threading a registry through
every constructor would churn the whole API.  Instead each
:class:`~repro.simnet.kernel.Simulator` owns exactly one
:class:`Observability` — components call ``obs_for(self.sim)`` at
construction and land on the same registry and tracer as everything
else in that simulation.  The context hangs on the simulator's ``obs``
attribute, so it is freed with the simulator, and two simulations never
share instruments (fresh ``build_cluster`` ⇒ fresh counters ⇒
deterministic replay).
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

__all__ = ["Observability", "obs_for"]


class Observability:
    """One simulation's metrics registry plus its (optional) tracer."""

    def __init__(self, sim):
        self.sim = sim
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(sim, registry=self.metrics)


def obs_for(sim) -> Observability:
    """The :class:`Observability` context of *sim* (created lazily)."""
    ctx = sim.obs
    if ctx is None:
        ctx = sim.obs = Observability(sim)
    return ctx
