"""Simulated RDMA verbs.

This package models an InfiniBand-class RDMA stack faithfully enough to
reproduce the paper's performance arguments:

* **Control path is expensive**: protection domains, memory registration
  (cost proportional to pages), queue-pair creation and connection
  establishment all charge realistic setup latencies.
* **Data path is fast and offloaded**: one-sided READ/WRITE/CAS/FAA
  operations are executed entirely by the (simulated) NICs — the remote
  host's CPU model is never touched — while SEND/RECV, which carries the
  control RPCs, involves both NICs plus receive-queue matching.

Those six verbs are all it models: what RStore runs, nothing more.  The
public surface mirrors the verbs API: open a device
(:class:`~repro.rdma.nic.RNic`), allocate a PD, register MRs, create RC
QPs, connect them through the connection manager, post work requests and
take their completions from completion queues.
"""

from repro.rdma.cm import ConnectionManager
from repro.rdma.cq import CompletionQueue, WorkCompletion
from repro.rdma.device import NicModel
from repro.rdma.memory import Buffer, HostMemory, MemoryRegion
from repro.rdma.nic import RNic
from repro.rdma.pd import ProtectionDomain
from repro.rdma.qp import QueuePair
from repro.rdma.types import Access, Opcode, QpState, RdmaError, WcStatus
from repro.rdma.wr import RecvWR, SendWR

__all__ = [
    "Access",
    "Buffer",
    "CompletionQueue",
    "ConnectionManager",
    "HostMemory",
    "MemoryRegion",
    "NicModel",
    "Opcode",
    "ProtectionDomain",
    "QpState",
    "QueuePair",
    "RNic",
    "RdmaError",
    "RecvWR",
    "SendWR",
    "WcStatus",
    "WorkCompletion",
]
