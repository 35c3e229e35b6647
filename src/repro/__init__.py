"""Reproduction of *RStore: A Direct-Access DRAM-based Data Store* (ICDCS'15).

Package map
-----------
``repro.simnet``
    Discrete-event cluster simulator (kernel, hosts, links, CPU model).
``repro.rdma``
    Simulated RDMA verbs: devices, memory regions, queue pairs,
    completion queues, one-sided READ/WRITE/atomics, connection manager.
``repro.rpc`` / ``repro.net`` / ``repro.disk``
    Messaging, sockets-like transport and disk models used by the
    control path and the comparison baselines.
``repro.core``
    RStore itself: master, memory servers, and the memory-like client
    API (``alloc`` / ``map`` / ``read`` / ``write``).
``repro.graph`` / ``repro.sort``
    The paper's two applications — a distributed graph-processing
    framework and a key-value sorter — plus their baselines.
``repro.cluster``
    One-call testbed construction and experiment harness.

See ``DESIGN.md`` for the full inventory and the experiment index.
"""

__version__ = "0.1.0"

from repro.simnet.config import GiB, Gbps, KiB, MiB, us

__all__ = ["KiB", "MiB", "GiB", "Gbps", "us", "__version__"]
