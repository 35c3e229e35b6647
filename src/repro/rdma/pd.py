"""Protection domains: the verbs grouping of MRs and QPs.

A QP may only use memory regions registered in its own PD; crossing PDs
is a protection error.  RStore uses one PD per service endpoint.
"""

from __future__ import annotations

__all__ = ["ProtectionDomain"]


class ProtectionDomain:
    """Groups memory regions and queue pairs on one device."""

    def __init__(self, nic):
        self.nic = nic
        self.handle = next(nic.sim.sequence("pd"))
        self.regions: list = []
        self.qps: list = []
