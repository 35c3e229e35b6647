"""A simple spindle model: sequential bandwidth.

The TeraSort comparator in the paper runs on HDFS over local disks;
its runtime is dominated by the multiple passes map-reduce makes over
the data, each a sequential stream.  The model therefore needs exactly
one behaviour: sustained sequential bandwidth.  Concurrent requests
serialize on the spindle (a capacity-1 resource).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simnet.kernel import Simulator
from repro.simnet.resources import Resource

__all__ = ["DiskModel", "Disk"]


@dataclass
class DiskModel:
    """A 7.2k-rpm SATA drive of the paper's era."""

    read_bandwidth_Bps: float = 160e6
    write_bandwidth_Bps: float = 140e6


class Disk:
    """One spindle; reads and writes are generators charging time."""

    def __init__(self, sim: Simulator, model: Optional[DiskModel] = None,
                 name: str = "disk"):
        self.sim = sim
        self.model = model or DiskModel()
        self.name = name
        self._spindle = Resource(sim, capacity=1)
        self.bytes_read = 0
        self.bytes_written = 0

    def read(self, nbytes: int):
        """Read *nbytes* (generator)."""
        yield from self._access(nbytes, self.model.read_bandwidth_Bps)
        self.bytes_read += nbytes

    def write(self, nbytes: int):
        """Write *nbytes* (generator)."""
        yield from self._access(nbytes, self.model.write_bandwidth_Bps)
        self.bytes_written += nbytes

    def _access(self, nbytes: int, bandwidth: float):
        if nbytes < 0:
            raise ValueError(f"negative access size {nbytes}")
        yield from self._spindle.occupy(nbytes / bandwidth)
