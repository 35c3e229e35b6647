"""RStore deployment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.simnet.config import MiB

__all__ = ["RStoreConfig"]


@dataclass
class RStoreConfig:
    """Knobs for master, memory servers and clients.

    The defaults mirror the paper's deployment style: one master, every
    other machine donating a DRAM arena pre-registered at startup, and
    regions striped across servers in fixed-size stripes for aggregate
    bandwidth.
    """

    #: host id running the master
    master_host: int = 0
    #: striping unit: a region is cut into stripes of this size, each
    #: placed on one memory server
    stripe_size: int = 1 * MiB
    #: copies per stripe: 1 (the paper's volatile store) or more — an
    #: availability extension: writes fan to every replica, reads hit
    #: the primary, and the master promotes replicas when servers die
    default_replication: int = 1
    #: memory-server heartbeat period
    heartbeat_interval_s: float = 0.1
    #: master declares a server dead after this long without a heartbeat
    lease_timeout_s: float = 0.35
    #: root seed for every derived deterministic RNG stream (client
    #: retry jitter, coordination backoff, server rejoin)
    seed: int = 7
    #: deadline for one control-plane call (connect + RPC + bounded
    #: reconnects); a client whose master is partitioned away fails with
    #: :class:`~repro.core.errors.DeadlineExceededError` once this drains
    control_deadline_s: float = 2.0
    #: how long a restarted master waits for servers to re-register
    #: before declaring the stragglers dead and re-queueing repairs
    recovery_grace_s: float = 0.5
    #: ablation (E9): resolve region metadata at the master on every IO
    #: instead of caching it in the mapping
    resolve_per_io: bool = False
    #: ablation (E9): route data operations through the server CPU with
    #: two-sided messaging instead of one-sided RDMA
    two_sided_data_path: bool = False
    #: enable RSan, the happens-before race sanitizer for one-sided
    #: accesses (see repro.sanitize) — opt-in; the default path stays
    #: zero-cost and bit-identical with the flag off
    sanitize: bool = False
    #: metadata shards the control plane is partitioned into: each is a
    #: full master (own metalog, epoch, lease table, repair planner)
    #: addressed by consistent hashing over qualified region names;
    #: 1 reproduces the original single-master control plane exactly
    control_shards: int = 1
    #: per-tenant capacity quotas in bytes of reserved (post-replication)
    #: arena space; tenants absent from the dict are unlimited.  Each
    #: shard enforces an even share (see ``core/shard.py``).
    tenant_quota_bytes: Optional[dict[str, int]] = field(default=None)
    #: adaptive selector: every Nth op per class re-samples a
    #: non-current mode so regime shifts are eventually observed
    datapath_probe_every: int = 32

    #: service ids on the fabric
    master_service: str = "rstore-master"
    mem_service: str = "rstore-mem"
    data_service: str = "rstore-data"

    def __post_init__(self):
        if self.stripe_size <= 0:
            raise ValueError("stripe_size must be positive")
        if self.control_deadline_s <= 0:
            raise ValueError("control_deadline_s must be positive")
        if self.recovery_grace_s < 0:
            raise ValueError("recovery_grace_s cannot be negative")
        if self.control_shards < 1:
            raise ValueError("control_shards must be at least 1")
        if self.datapath_probe_every < 2:
            raise ValueError("datapath_probe_every must be at least 2")
        if self.tenant_quota_bytes is not None:
            for tenant, quota in self.tenant_quota_bytes.items():
                if not tenant or "/" in tenant:
                    raise ValueError(f"bad tenant id {tenant!r}")
                if quota < 0:
                    raise ValueError(
                        f"tenant {tenant!r} quota cannot be negative"
                    )
