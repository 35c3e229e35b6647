"""Control-plane sharding: the shard map, tenancy, and the shard router.

The control plane is partitioned into ``config.control_shards``
metadata shards.  Each shard is a full :class:`~repro.core.master.Master`
— its own namespace slice, metalog WAL, epoch, lease table, and repair
planner — listening on its own service id.  Region names are
*namespace-qualified*: ``"<tenant>/<name>"`` scopes a region to a
tenant, and bare names belong to the :data:`DEFAULT_TENANT`.

Addressing is consistent hashing over the full qualified name: each
shard owns a set of virtual points on a 64-bit ring, and a name maps to
the shard owning the first point at or after its hash.  The ring is
seeded from nothing but the shard count, so every client, server and
master derives the identical map with no exchange — and growing the
shard count moves only the keys between the new points, not the whole
namespace.

The :class:`ShardRouter` is the **only** legal way to dial a master
endpoint from outside ``core/master.py`` (repro-lint RL006 enforces
this).  It caches one control :class:`~repro.rpc.endpoint.RpcClient`
per shard, routes by name, and owns the deadline-bounded redial loop
that crash recovery leans on.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import TYPE_CHECKING, Optional

from repro.core.errors import DeadlineExceededError
from repro.coord.base import Backoff
from repro.rdma.types import RdmaError
from repro.rpc.channel import ChannelClosed
from repro.rpc.endpoint import RpcClient, RpcClientPool, RpcError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import RStoreConfig
    from repro.rdma.cm import ConnectionManager
    from repro.rdma.nic import RNic
    from repro.simnet.kernel import Simulator

__all__ = [
    "DEFAULT_TENANT",
    "ShardMap",
    "ShardRouter",
    "shard_service",
    "split_quota",
    "tenant_of",
]

#: tenant owning bare (un-prefixed) region names
DEFAULT_TENANT = "default"

#: first retry backoff of a control redial or a data-path replay;
#: doubles per attempt (with jitter) up to the cap
RETRY_BACKOFF_BASE_S = 0.02
RETRY_BACKOFF_MAX_S = 0.3

#: virtual ring points per shard — enough to keep the key split within
#: a few percent of even at 8 shards, cheap enough to rebuild anywhere
_VNODES = 64


def tenant_of(name: str) -> str:
    """The tenant a qualified region name belongs to.

    ``"acme/ledger"`` → ``"acme"``; a bare ``"ledger"`` belongs to the
    default tenant.  Only the first ``/`` splits — tenants may nest
    further namespace structure after it.
    """
    tenant, sep, rest = name.partition("/")
    if sep and tenant and rest:
        return tenant
    return DEFAULT_TENANT


def shard_service(base: str, shard_id: int) -> str:
    """The fabric service id of one metadata shard.

    Shard 0 keeps the bare service name, so a single-shard deployment
    is wire-identical to the pre-sharding control plane.
    """
    return base if shard_id == 0 else f"{base}.{shard_id}"


def _point(label: str) -> int:
    """A deterministic 64-bit ring coordinate for *label*."""
    return int.from_bytes(
        hashlib.blake2b(label.encode(), digest_size=8).digest(), "big"
    )


class ShardMap:
    """Consistent hashing of qualified region names onto shards.

    Pure arithmetic over the shard count — no I/O, no state to gossip.
    Every participant holding the same ``num_shards`` computes the same
    map, which is what lets clients route without asking anyone.
    """

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError(f"need at least one shard, got {num_shards}")
        self.num_shards = num_shards
        ring = []
        for shard in range(num_shards):
            for vnode in range(_VNODES):
                ring.append((_point(f"shard-{shard}-vnode-{vnode}"), shard))
        ring.sort()
        self._points = [p for p, _s in ring]
        self._owners = [s for _p, s in ring]

    def shard_of(self, name: str) -> int:
        """The shard owning *name* (qualified or bare)."""
        if self.num_shards == 1:
            return 0
        idx = bisect_left(self._points, _point(name))
        if idx == len(self._points):
            idx = 0  # wrap: past the last point, the ring starts over
        return self._owners[idx]


class ShardRouter:
    """Per-host control-plane stub: one cached channel per shard.

    Both the client library and the memory servers dial masters only
    through here.  The router knows nothing about what the RPCs mean —
    retry/deadline policy above the dial stays with its callers.
    """

    def __init__(self, sim: "Simulator", nic: "RNic",
                 cm: "ConnectionManager", config: "RStoreConfig"):
        self.sim = sim
        self.nic = nic
        self.cm = cm
        self.config = config
        self.map = ShardMap(config.control_shards)
        self._clients = RpcClientPool(sim, nic, cm)

    @property
    def num_shards(self) -> int:
        return self.map.num_shards

    def shard_of(self, name: str) -> int:
        return self.map.shard_of(name)

    def client_for(self, shard_id: int):
        """The cached control channel to *shard_id*, dialing on first
        use (generator)."""
        return self._clients.get(
            shard_id, self.config.master_host,
            shard_service(self.config.master_service, shard_id),
        )

    def connect_all(self):
        """Eagerly dial every shard (generator) — boot-time warm-up so
        steady state never pays a control handshake."""
        for shard_id in range(self.num_shards):
            yield from self.client_for(shard_id)

    def drop(self, shard_id: int) -> None:
        """Forget a dead channel so the next call re-dials."""
        self._clients.clients.pop(shard_id, None)

    def redial(self, shard_id: int, deadline: float, rng):
        """Re-establish the channel to *shard_id* (generator).

        Retries with jittered backoff until *deadline*; raises
        :class:`DeadlineExceededError` when the budget drains.  The
        fresh channel replaces the cached one on success.
        """
        cfg = self.config
        self.drop(shard_id)
        backoff = Backoff(
            self.sim, rng,
            base_s=RETRY_BACKOFF_BASE_S,
            max_s=RETRY_BACKOFF_MAX_S,
            deadline=deadline,
        )
        service = shard_service(cfg.master_service, shard_id)
        while True:
            yield from backoff.pause()  # raises DeadlineExceededError
            client = RpcClient(self.sim, self.nic, self.cm)
            try:
                yield from client.connect(cfg.master_host, service)
            except (RdmaError, RpcError, ChannelClosed):
                if self.sim.now >= deadline:
                    raise DeadlineExceededError(
                        f"could not re-dial control shard {shard_id}"
                    ) from None
                continue
            self._clients.clients[shard_id] = client
            return client


def split_quota(quota: Optional[int], num_shards: int,
                shard_id: int = 0) -> Optional[int]:
    """*shard_id*'s capacity share of a tenant's cluster-wide quota.

    Each shard enforces quotas against its own accounting, so a
    cluster-wide budget is divided across shards.  The split is an
    exact partition: the remainder bytes go to the lowest-numbered
    shards one byte each, so ``sum(split_quota(q, n, s) for s in
    range(n)) == q`` — the fleet can never admit more than the
    cluster-wide budget in aggregate, and never less than it when a
    tenant spreads evenly.  ``None`` (unlimited) stays unlimited.
    """
    if quota is None:
        return None
    base, extra = divmod(quota, num_shards)
    return base + (1 if shard_id < extra else 0)
