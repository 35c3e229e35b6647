"""A naive two-phase-locking transaction runner: the E14 comparator.

The pre-OCC design point ("RDMA vs. RPC for Implementing Distributed
Data Structures" argues the lock-based variant): declare every key up
front, lock *all* of their slots before reading anything, hold the
locks across read + compute + write, release at the end.  Growing and
shrinking phases are strict, and locks are taken in global
``(region, offset)`` order, so the runner is deadlock-free — but
readers block writers and writers block everyone, which is exactly
the contention behaviour E14 measures against the optimistic runtime
(:mod:`repro.txn`).

Slots are locked with the same SeqLock token protocol the OCC runtime
uses (unique odd tokens, ambiguous CAS completions resolved by a
follow-up read), so the two runners differ only in *when* they lock,
not in how.
"""

from __future__ import annotations

from repro.coord import Backoff
from repro.coord.base import read_word
from repro.coord.seqlock import mint_token, replay_idempotent
from repro.core.errors import DeadlineExceededError
from repro.datapath import ops
from repro.kv.hashkv import KvError

__all__ = ["TwoPhaseLocking", "TwoPLError"]

#: per-slot lock acquisition attempts before giving up (each waits on
#: the shared backoff, which also enforces the caller's deadline)
_LOCK_ATTEMPTS = 4096


class TwoPLError(KvError):
    """The 2PL runner could not serve the declared keyset."""


class TwoPhaseLocking:
    """Pessimistic multi-key transactions over hashkv tables."""

    def __init__(self, client, label: str = "2pl", deadline: float = None):
        self.client = client
        self.label = label
        self.deadline = deadline
        #: jitter streams derived once, not restarted by every run
        self._rng, self._apply_rng = (
            Backoff.for_client(client, f"twopl-{kind}{label}").rng
            for kind in ("", "apply-"))
        _m = client.obs.metrics
        _labels = dict(label=label, host=client.nic.host.host_id)
        self._m_commits = _m.counter("txn.twopl_commits", **_labels)
        self._m_lock_waits = _m.counter("txn.twopl_lock_waits", **_labels)
        self._m_commit_s = _m.histogram("txn.twopl_commit_s", **_labels)

    @property
    def commits(self) -> int:
        return int(self._m_commits.value)

    def _find_slot(self, store, key: bytes):
        """The slot holding *key* (generator); 2PL cannot insert —
        every declared key must already exist."""
        store._check_key(key)
        outcome, index, _snapshot, _reusable = yield from ops.walk(
            key, store.chain(key), store.snapshot_slot)
        if outcome == ops.HIT:
            return index
        raise TwoPLError(
            f"declared key {key!r} not present — the naive 2PL runner "
            "only updates existing keys"
        )

    def run(self, store, keys, fn, deadline: float = None):
        """One pessimistic transaction (generator).

        Locks every declared key's slot in global order, reads the
        values under lock, applies ``fn(values) -> updates`` (a plain
        function over ``{key: value}`` returning ``{key: new_value}``
        for the keys it changes), publishes the updates, and releases
        everything.  Returns ``fn``'s updates dict.
        """
        client = self.client
        sim = client.sim
        deadline = self.deadline if deadline is None else deadline
        token = mint_token(client, space=1)  # disjoint from the OCC runtime's
        backoff = Backoff(sim, self._rng, deadline=deadline)
        replay = Backoff(sim, self._apply_rng, base_s=1e-3, max_s=50e-3)
        start = sim.now
        # -- growing phase: resolve slots, lock them in global order
        # dedupe in declaration order: a set would issue the probe READs
        # in bytes-hash order, which moves with PYTHONHASHSEED
        slots = {}
        for key in dict.fromkeys(keys):
            index = yield from self._find_slot(store, key)
            slots[(store.mapping.name, store.slot_lock(index).offset)] = (
                key, index
            )
        held = []  # (lock, pre-lock version, key, index)
        try:
            for rkey in sorted(slots):
                key, index = slots[rkey]
                lock = store.slot_lock(index)
                for _attempt in range(_LOCK_ATTEMPTS):
                    with client.rsan.exempt(client._rsan_actor):
                        word = yield from read_word(lock.mapping, lock.offset)
                    if word % 2 == 0:
                        got = yield from lock.try_lock(word, token=token)
                        if got:
                            held.append((lock, word, key, index))
                            break
                    self._m_lock_waits.inc()
                    yield from backoff.pause()
                else:
                    raise DeadlineExceededError(
                        f"2PL lock on {rkey} not acquired within "
                        f"{_LOCK_ATTEMPTS} attempts"
                    )
            # -- read under lock: values are stable while we hold them
            values = {}
            for _lock, _word, key, index in held:
                _version, key_len, slot_key, value = (
                    yield from store.snapshot_slot(index)
                )
                if ops.classify(key_len, slot_key, key) != ops.HIT:
                    raise TwoPLError(
                        f"slot {index} no longer holds {key!r} — it was "
                        "deleted between probe and lock"
                    )
                values[key] = value
            updates = fn(dict(values)) or {}
            unknown = set(updates) - set(values)
            if unknown:
                raise TwoPLError(
                    f"updates for undeclared keys: {sorted(unknown)}"
                )
            # -- write + shrinking phase: publish changed, restore rest
            for lock, word, key, _index in held:
                if key in updates:
                    body = ops.encode_body(key, updates[key],
                                           store.key_size, store.value_size)
                    yield from replay_idempotent(
                        lambda lock=lock, word=word, body=body:
                            lock.publish(token, body,
                                         new_version=word + 2),
                        replay,
                    )
                else:
                    yield from replay_idempotent(
                        lambda lock=lock, word=word: lock.abort(word),
                        replay,
                    )
            held = []
            self._m_commits.inc()
            self._m_commit_s.observe(sim.now - start)
            return updates
        except BaseException:
            for lock, word, _key, _index in held:
                yield from replay_idempotent(
                    lambda lock=lock, word=word: lock.abort(word), replay
                )
            raise
