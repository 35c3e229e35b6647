"""Host CPU cost model.

CPython wall-time is meaningless for performance claims, so every
simulated activity charges CPU time *explicitly* through this model: a
host has a fixed number of cores (a counted :class:`Resource`), and work
occupies one core for a computed duration.  Benchmarks then read
``busy_seconds`` off the model — e.g. to show that one-sided RDMA leaves
the server CPU idle while the sockets baseline burns cores.
"""

from __future__ import annotations

from repro.simnet.kernel import Simulator
from repro.simnet.resources import Resource

__all__ = ["Cpu"]


class Cpu:
    """A multi-core CPU charging explicit durations."""

    def __init__(self, sim: Simulator, cores: int,
                 copy_bandwidth_Bps: float):
        self.sim = sim
        self.cores = cores
        self.copy_bandwidth_Bps = copy_bandwidth_Bps
        self._res = Resource(sim, capacity=cores)
        #: accumulated core-seconds of work executed
        self.busy_seconds = 0.0

    def run(self, seconds: float):
        """Occupy one core for *seconds* (generator)."""
        if not seconds >= 0:  # NaN fails this too
            raise ValueError(f"CPU time must be >= 0, got {seconds}")
        res = self._res
        slot = res.try_acquire()
        if slot is None:
            # every core is busy: queue FIFO behind the other waiters
            slot = res.request()
            yield slot
        try:
            yield self.sim.timeout(seconds)
            self.busy_seconds += seconds
        finally:
            res.release(slot)

    def copy(self, nbytes: int):
        """Charge a memory copy of *nbytes* on one core (generator)."""
        yield from self.run(nbytes / self.copy_bandwidth_Bps)
