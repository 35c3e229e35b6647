"""Shared plumbing for the coordination primitives.

Every primitive in :mod:`repro.coord` follows the same separation
discipline as the store itself:

* **setup (control path)** — ``create`` allocates a small named region
  through the master and maps it; ``open`` maps an existing one.  These
  are the only master RPCs a primitive ever makes (a ``SeqLock`` is a
  view over a record of a region its user maps).
* **steady state (data path)** — all coordination runs on one-sided
  ``faa``/``cas``/``read``/``write`` against the mapped region.  No
  server CPU, no master, no messages.

Coordination regions are allocated with ``replication=1`` because
NIC-side atomics cannot be mirrored consistently across replicas
(``Mapping._plan_pieces`` refuses an atomic on a replicated stripe); a
coordination word that outlives its server must be re-created, not
repaired.
"""

from __future__ import annotations

import random

from repro.core.errors import (
    DeadlineExceededError,
    RegionUnavailableError,
    RetryBudgetExceededError,
    RStoreError,
)
from repro.simnet.kernel import Simulator
from repro.simnet.rand import derive_rng

__all__ = ["CoordError", "Backoff", "region_name", "read_word", "write_word",
           "cas_result"]

#: all coordination regions live under one reserved name prefix
_PREFIX = "coord."


class CoordError(RStoreError):
    """Coordination-layer failure (protocol misuse or livelock)."""


def region_name(name: str) -> str:
    """The store-level region name backing the primitive *name*."""
    return name if name.startswith(_PREFIX) else _PREFIX + name


def read_word(mapping, offset: int):
    """One-sided read of an 8-byte little-endian word (generator)."""
    raw = yield from mapping.read(offset, 8)
    return int.from_bytes(raw, "little")


def write_word(mapping, offset: int, value: int):
    """One-sided write of an 8-byte little-endian word (generator)."""
    yield from mapping.write(offset, (value % (1 << 64)).to_bytes(8, "little"))


def cas_result(cas, token: int):
    """The old value the posted CAS future *cas* saw (generator): its
    expected value means it landed.

    Its completion answers, unless that is ambiguous (a lost ack, or
    flushed behind a failed request: the NIC may or may not have
    applied it).  Then *token* — the unique word naming this holder,
    which the CAS was writing or clearing — settles it with one read:
    the word carries the token afterwards exactly when the CAS was
    writing it.  The answer is the expected value if so and ``None`` if
    not (anything else in the word, the untouched expected value
    included: it never applied).  The one settle rule under
    ``RemoteLock`` acquire and release and ``seqlock.try_locks``;
    callers hold the RSan exemption.
    """
    try:
        return (yield from cas.wait())
    except RegionUnavailableError:
        observed = yield from read_word(cas.mapping, cas.offset)
        landed = (observed == token) == (cas.swap == token)
        return cas.compare if landed else None


class Backoff:
    """Capped exponential backoff with deterministic jitter.

    The jitter stream derives from the cluster seed plus a caller
    label, so contending clients spread out (no lockstep convoys on a
    contended CAS word) while whole simulations replay bit-for-bit.

    An optional *deadline* (absolute simulated time) bounds the whole
    retry loop: once it passes, :meth:`pause` raises
    :class:`DeadlineExceededError` instead of sleeping, and a pause
    that would overshoot it is clipped so the loop wakes exactly at
    the deadline for its final check.

    An optional *budget* (attempt count) bounds the loop the other
    way: once it drains, :meth:`pause` raises
    :class:`RetryBudgetExceededError`.  The deadline always outranks
    the budget — a caller-inherited deadline that has passed surfaces
    as the typed :class:`DeadlineExceededError`, never as a bare
    budget exhaustion, so every retry loop fails with the error that
    names the bound the *caller* set (RL005's uniform semantics).
    """

    def __init__(self, sim: Simulator, rng: random.Random,
                 base_s: float = 2e-6, max_s: float = 200e-6,
                 deadline: float | None = None,
                 budget: int | None = None):
        self.sim = sim
        self.rng = rng
        self.base_s = base_s
        self.max_s = max_s
        self.deadline = deadline
        self.budget = budget
        self.attempt = 0

    @classmethod
    def for_client(cls, client, label: str, max_s: float = 200e-6,
                   budget: int | None = None) -> "Backoff":
        """A backoff with a private jitter stream for *label*."""
        rng = derive_rng(
            client.config.seed,
            f"coord-{label}-host-{client.nic.host.host_id}",
        )
        return cls(client.sim, rng, max_s=max_s, budget=budget)

    def reset(self) -> None:
        self.attempt = 0

    @property
    def expired(self) -> bool:
        """True once the deadline (if any) has passed."""
        return self.deadline is not None and self.sim.now >= self.deadline

    @property
    def remaining(self) -> float:
        """Seconds until the deadline; ``inf`` when unbounded."""
        if self.deadline is None:
            return float("inf")
        return max(0.0, self.deadline - self.sim.now)

    def pause(self):
        """Sleep one backoff step (generator); doubles up to the cap.

        With a deadline set, raises :class:`DeadlineExceededError` once
        it has passed, and never sleeps beyond it.  With a budget set,
        raises :class:`RetryBudgetExceededError` once it drains — but a
        passed deadline is always checked first, so the caller's
        deadline never degrades into a budget error.
        """
        if self.expired:
            raise DeadlineExceededError(
                f"deadline passed after {self.attempt} attempt(s)"
            )
        if self.budget is not None and self.attempt >= self.budget:
            raise RetryBudgetExceededError(
                f"retry budget of {self.budget} attempt(s) exhausted"
            )
        self.attempt += 1
        # cap the exponent too: long poll loops push attempt into the
        # thousands, where 2**n no longer fits a float
        exponent = min(self.attempt - 1, 63)
        delay = min(self.max_s, self.base_s * (2.0 ** exponent))
        delay *= 0.5 + self.rng.random()
        yield self.sim.timeout(min(delay, self.remaining))
