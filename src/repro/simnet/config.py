"""Network and host configuration for the simulated cluster.

The default constants model the paper's testbed: machines on a single
FDR InfiniBand (56 Gb/s) switch with ConnectX-3-class NICs.  Everything
is a plain dataclass field so ablation benchmarks can sweep parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkConfig", "KiB", "MiB", "GiB", "Gbps", "us", "ms"]

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB


def Gbps(value: float) -> float:
    """Convert gigabits/second to bits/second."""
    return value * 1e9


def us(value: float) -> float:
    """Convert microseconds to seconds."""
    return value * 1e-6


def ms(value: float) -> float:
    """Convert milliseconds to seconds."""
    return value * 1e-3


@dataclass
class NetworkConfig:
    """Fabric parameters, defaulted to an FDR InfiniBand single-switch pod.

    ``link_rate_bps`` is the usable data rate per direction: FDR signals
    at 56 Gb/s; with 64b/66b encoding the data rate is ~54.3 Gb/s.
    """

    #: usable data rate of each host link, per direction (bits/s)
    link_rate_bps: float = Gbps(54.3)
    #: one-way propagation + PHY latency of a single link hop (s)
    link_prop_delay_s: float = us(0.25)
    #: switch forwarding latency, cut-through (s)
    switch_latency_s: float = us(0.25)
    #: fabric MTU: messages are fragmented into frames of this size for
    #: multiplexing fairness.  4 KiB matches the IB MTU; benchmarks that
    #: push many GiB may raise it to bound simulator event counts (the
    #: bandwidth error from coarser frames is negligible for large IO).
    frame_size: int = 64 * KiB
    #: number of cores per host, for the CPU cost model
    cores_per_host: int = 8
    #: NIC loopback / memory-DMA bandwidth for host-local transfers
    #: (DDR3-era memory subsystem; local IO serializes on this, it is
    #: not free parallelism)
    loopback_rate_bps: float = 102.4e9  # 12.8 GB/s
    #: number of racks; 1 = the paper's single-switch pod.  With more
    #: racks, hosts are distributed round-robin and cross-rack traffic
    #: shares each rack's uplink
    racks: int = 1
    #: rack uplink oversubscription: uplink capacity =
    #: hosts_in_rack * link_rate / oversubscription (1.0 = full bisection)
    oversubscription: float = 1.0

    def __post_init__(self):
        if self.racks < 1:
            raise ValueError(f"need at least one rack, got {self.racks}")
        if self.oversubscription < 1.0:
            raise ValueError(
                f"oversubscription must be >= 1, got {self.oversubscription}"
            )
    #: memory copy bandwidth per core (bytes/s) — used by the sockets
    #: stack and by applications that touch every byte
    copy_bandwidth_Bps: float = 3.2e9
