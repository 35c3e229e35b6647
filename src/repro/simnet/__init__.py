"""Discrete-event cluster simulator underpinning the RStore reproduction.

The package provides a compact, simpy-like simulation kernel
(:mod:`repro.simnet.kernel`), synchronization resources
(:mod:`repro.simnet.resources`), and a cluster model — hosts with a CPU
cost model, full-duplex links and a single-switch fabric
(:mod:`repro.simnet.topology`).

All simulated activities are generator coroutines driven by
:class:`~repro.simnet.kernel.Simulator`.  Code inside the simulation uses
``yield`` / ``yield from`` to wait for events; wall-clock time never
appears anywhere — time is charged explicitly through links, NIC models
and the CPU cost model so that the *simulated* clock is the measurement.
"""

from repro.simnet.kernel import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simnet.faults import FaultInjector
from repro.simnet.resources import Resource, Store
from repro.simnet.config import NetworkConfig
from repro.simnet.topology import Host, Network

__all__ = [
    "Event",
    "FaultInjector",
    "Host",
    "Network",
    "NetworkConfig",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
