"""RStore exception hierarchy.

Two families below :class:`RStoreError` classify every failure by what
a retry loop is allowed to do with it:

* :class:`RecoverableError` — transient; the condition can clear on its
  own (a server died and repair is running, the master is restarting, a
  cached descriptor went stale).  Retry loops may catch these, refresh
  whatever state went stale, and try again — within their deadline or
  retry budget.
* :class:`FatalError` — deterministic; retrying the identical request
  can never succeed (the region does not exist, the access is out of
  bounds, the deadline already expired).  Retry loops must let these
  propagate immediately.

Every public error must appear in ``__all__``: the RPC layer rebuilds
remote exceptions by name from this list, so an unlisted class would
degrade to an opaque ``RpcRemoteError`` at the caller.
"""

from __future__ import annotations

__all__ = [
    "RStoreError",
    "RecoverableError",
    "FatalError",
    "AllocationError",
    "OutOfMemoryError",
    "TenantQuotaExceededError",
    "RegionNotFoundError",
    "RegionExistsError",
    "RegionUnavailableError",
    "NotMappedError",
    "BoundsError",
    "StaleEpochError",
    "MasterUnavailableError",
    "DeadlineExceededError",
    "RetryBudgetExceededError",
]


class RStoreError(Exception):
    """Base class for all RStore failures."""


class RecoverableError(RStoreError):
    """Transient failure: retrying (after refreshing state) may succeed."""


class FatalError(RStoreError):
    """Deterministic failure: retrying the same request cannot succeed."""


class AllocationError(RStoreError):
    """A region could not be allocated."""


class OutOfMemoryError(AllocationError):
    """The cluster (or a chosen server) lacks free DRAM."""


class TenantQuotaExceededError(AllocationError):
    """The allocation would push its tenant past its capacity quota.

    Deterministic for the request as issued — the tenant must free
    capacity (or be granted more quota) before retrying, so retry loops
    treat it like a fatal allocation failure.  Other tenants' requests
    are unaffected: quotas isolate, they never cascade.
    """


class RegionNotFoundError(FatalError):
    """No region is registered under the requested name."""


class RegionExistsError(FatalError):
    """A region with that name already exists."""


class RegionUnavailableError(RecoverableError):
    """The region lost one of its memory servers."""


class NotMappedError(FatalError):
    """Data-path access attempted through an unmapped or stale mapping."""


class BoundsError(FatalError):
    """Access outside the region's [0, size) range."""


class StaleEpochError(RecoverableError):
    """The request carried an epoch older than the cluster's.

    Raised by the master for fenced control RPCs and synthesized by the
    client when a one-sided op is NAK'd by a server that re-registered
    at a newer epoch.  Recoverable: refresh cached metadata (which
    carries the new epoch) and re-issue — but never blindly retry the
    stale request.
    """


class MasterUnavailableError(RecoverableError):
    """The master is unreachable (crashed, restarting or partitioned)."""


class DeadlineExceededError(FatalError):
    """The operation's deadline expired before it could complete."""


class RetryBudgetExceededError(DeadlineExceededError):
    """The operation's retry budget drained before it could complete."""


def translated(exc):
    """The local twin of a remote failure.

    An ``RpcRemoteError`` carries the remote exception's class name; if
    it names one of the errors above, return that class built from the
    remote message so callers catch real types, else return *exc*.
    """
    if exc.error_type in __all__:
        return globals()[exc.error_type](exc.remote_message)
    return exc
