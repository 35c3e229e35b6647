"""RStore: the paper's primary contribution.

A DRAM-based distributed data store whose API is memory-like —
``alloc`` / ``map`` / ``read`` / ``write`` / atomics over named,
byte-addressable regions striped across memory servers — and whose
implementation extends RDMA's separation philosophy to the cluster:
every expensive step (naming, placement, registration, connection
setup) happens on the control path at ``alloc``/``map`` time, leaving
the data path as pure one-sided RDMA with no server CPU involvement
and no metadata lookups.

Components: :class:`~repro.core.master.Master` (namespace, placement,
liveness, synchronization), :class:`~repro.core.server.MemoryServer`
(pre-registered DRAM arenas), and :class:`~repro.core.client.RStoreClient`
(the application-facing library).
"""

from repro.core.client import RStoreClient
from repro.core.config import RStoreConfig
from repro.core.errors import (
    AllocationError,
    BoundsError,
    NotMappedError,
    OutOfMemoryError,
    RegionExistsError,
    RegionNotFoundError,
    RegionUnavailableError,
    RStoreError,
)
from repro.core.mapping import Mapping
from repro.core.master import Master
from repro.core.pipeline import IoBatch, OpFuture
from repro.core.region import RegionDesc, StripeDesc, StripeReplica
from repro.core.repair import RepairPlanner, RepairTask
from repro.core.server import MemoryServer

__all__ = [
    "AllocationError",
    "BoundsError",
    "IoBatch",
    "Mapping",
    "Master",
    "MemoryServer",
    "NotMappedError",
    "OpFuture",
    "OutOfMemoryError",
    "RStoreClient",
    "RStoreConfig",
    "RStoreError",
    "RegionDesc",
    "RegionExistsError",
    "RegionNotFoundError",
    "RegionUnavailableError",
    "RepairPlanner",
    "RepairTask",
    "StripeDesc",
    "StripeReplica",
]
