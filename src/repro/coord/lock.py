"""A remote spinlock on one CAS word.

Region layout (8 bytes)::

    [ owner 8B ]  -- 0 free, otherwise the holder's token

``acquire`` spins CAS(0 -> token) with capped exponential backoff and
deterministic jitter (the Storm-style contention discipline: losers
spread out instead of convoying on the hosting NIC).  ``release`` is a
verifying CAS(token -> 0), so releasing a lock this handle does not
hold is caught as a protocol bug rather than silently corrupting the
word.

Unlike bare atomics, lock operations recover from *ambiguous*
completion errors (the NIC may or may not have applied the CAS): the
token uniquely identifies the holder, so one follow-up read of the
word reveals whether the CAS landed, and acquire/release resolve the
ambiguity instead of surfacing it.  The lock word still lives on an
unreplicated region (atomics cannot be mirrored), so a lock does not
survive the death of its hosting server — callers that need
fault-tolerant mutual exclusion must layer leases on top, which
steady-state data structures here do not need.
"""

from __future__ import annotations


from repro.coord.base import Backoff, CoordError, cas_result, region_name
from repro.core.pipeline import DATA_RETRY_LIMIT

__all__ = ["RemoteLock"]


class RemoteLock:
    """A CAS spinlock shared by any number of clients."""

    REGION_SIZE = 8

    def __init__(self, client, name: str, mapping):
        self.client = client
        self.name = name
        self.mapping = mapping
        #: must be unique among concurrent holders: one handle per host
        self.token = client.nic.host.host_id + 1
        self.held = False
        self._backoff = Backoff.for_client(client, f"lock-{name}")
        # -- metrics
        _labels = dict(name=name, host=client.nic.host.host_id,
                       token=self.token)
        self._m_acquisitions = client.obs.metrics.counter(
            "coord.lock.acquisitions", **_labels)
        self._m_contended = client.obs.metrics.counter(
            "coord.lock.contended", **_labels)

    @property
    def contended(self) -> int:
        """CAS attempts that lost to another holder."""
        return int(self._m_contended.value)

    # -- setup (control path) ------------------------------------------------

    @classmethod
    def create(cls, client, name: str):
        """Allocate and map a fresh (free) lock region (generator)."""
        region = region_name(name)
        yield from client.alloc(region, cls.REGION_SIZE, replication=1)
        mapping = yield from client.map(region)
        return cls(client, name, mapping)

    @classmethod
    def open(cls, client, name: str):
        """Map an existing lock from another client (generator)."""
        mapping = yield from client.map(region_name(name))
        return cls(client, name, mapping)

    # -- steady state (data path) --------------------------------------------

    def try_acquire(self):
        """One CAS attempt (generator); returns whether we got it."""
        if self.held:
            raise CoordError(f"lock {self.name!r} is not reentrant")
        rsan = self.client.rsan
        actor = self.client._rsan_actor
        # an ambiguous completion is settled by the word itself: our
        # token there means the CAS won before its completion was lost;
        # a free word is the *real* holder having released since, not
        # evidence that we ever held it
        old = yield from self._cas(0, self.token)
        if old == 0:
            self.held = True
            self._m_acquisitions.inc()
            rsan.sync_acquire(actor, ("lock", self.name))
            return True
        self._m_contended.inc()
        return False

    def acquire(self):
        """Spin until the lock is ours (generator)."""
        self._backoff.reset()
        while True:
            got = yield from self.try_acquire()
            if got:
                return
            yield from self._backoff.pause()

    def release(self):
        """Release (generator); verifies this handle held the lock."""
        if not self.held:
            raise CoordError(f"releasing lock {self.name!r} we never took")
        rsan = self.client.rsan
        actor = self.client._rsan_actor
        # publish before the CAS leaves: everything acked so far is
        # covered; ops still in flight deliberately are not
        rsan.sync_release(actor, ("lock", self.name))
        # a CAS that provably never applied (an ambiguous completion,
        # our token still in the word) is re-issued, but not forever — a
        # server that keeps eating the CAS while serving reads must
        # eventually surface
        attempts = 0
        while True:
            old = yield from self._cas(self.token, 0)
            if old is not None:
                break
            attempts += 1
            if attempts >= DATA_RETRY_LIMIT:
                raise CoordError(
                    f"lock {self.name!r}: release CAS failed "
                    f"{attempts} times"
                )
        self.held = False
        if old != self.token:
            raise CoordError(
                f"lock {self.name!r} held by token {old}, not ours "
                f"({self.token}): release without acquire?"
            )

    def _cas(self, expected: int, new: int):
        """One CAS of the lock word, settled (generator)."""
        client = self.client
        with client.rsan.exempt(client._rsan_actor):
            cas = yield from self.mapping.cas_async(0, expected, new)
            return (yield from cas_result(cas, self.token))
