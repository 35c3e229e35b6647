"""The OCC transaction runtime: buffered ops, validate, lock, publish.

A :class:`Txn` buffers ``get``/``put``/``delete`` over any number of
hashkv tables (plus raw :class:`~repro.coord.SeqLock` records) and
commits them atomically with optimistic concurrency control:

1. **Snapshot reads.**  Every slot a transaction touches is captured
   in a *single* one-sided READ (``RKVStore.snapshot_slot``) and its
   even version recorded in the read-set.  Probe chains record every
   slot they cross, so a concurrent insert that would change a
   lookup's outcome invalidates the transaction (phantom protection).
2. **Write intent.**  At commit every version word of the write-set
   is CAS'd from its snapshot version to the transaction's unique odd
   *token* (the :class:`~repro.coord.SeqLock` token protocol), all in
   global ``(region, offset)`` order on **one flush**, one round trip
   (``seqlock.try_locks``).  Try-locks never wait, so nothing can
   deadlock: losing any intent releases the ones won and aborts.  A won
   CAS doubles as validation: version, hence body, is as snapshotted.
3. **Validation.**  Read-only members of the read-set are re-read
   (one batched round of 8-byte version words) and must still carry
   their snapshot versions.
4. **Apply.**  Past validation the transaction is irrevocably
   committed: the write-set is published on **one flush**, one round
   trip (``seqlock.publishes``: per record an ordered ``[WRITE body,
   WRITE version after=body]`` pair), and a pair a fault broke is
   redone, while the word is still our token, until it lands — faults
   during apply delay the commit but cannot tear it.

Aborts before the commit point release intent locks by restoring the
snapshot version — also an idempotent write, also replayed under
faults — so a failed transaction never leaves a slot locked.

Conflicts surface as :class:`TxnConflictError` (a
:class:`RecoverableError`); :meth:`TxnRuntime.run` retries the whole
closure on the shared deadline-aware :class:`~repro.coord.Backoff`,
so exhaustion raises the *typed* ``DeadlineExceededError`` /
``RetryBudgetExceededError`` like every other retry loop in the tree.
"""

from __future__ import annotations

from functools import partial

from repro.coord import Backoff, SeqLock
from repro.coord.seqlock import publishes, try_locks
from repro.core.errors import (
    DeadlineExceededError,
    FatalError,
    RecoverableError,
    RStoreError,
)
from repro.datapath import ops
from repro.kv.hashkv import KvError, KvFullError

__all__ = ["Txn", "TxnRuntime", "TxnError", "TxnConflictError",
           "TxnMisuseError", "replay_idempotent"]

_WORD = 8
#: snapshot retries while a writer holds a slot (matches hashkv)
_SNAP_RETRIES = 64
#: replays of one idempotent commit/abort write before declaring the
#: cluster unrecoverable (each replay itself rides the data path's
#: internal retries, so this spans many seconds of simulated faults)
_APPLY_ATTEMPTS = 64
#: transaction tokens live far above any version a slot can reach
_TOKEN_BASE = 1 << 62


class TxnError(RStoreError):
    """Transaction-layer failure."""


class TxnConflictError(TxnError, RecoverableError):
    """The transaction lost a race: a snapshot was invalidated or a
    write intent was beaten to a slot.  Recoverable — rerun it."""


class TxnMisuseError(TxnError, FatalError):
    """API misuse: operating on a transaction that already finished."""


def replay_idempotent(op_factory, backoff):
    """Drive one idempotent post-decision write to completion
    (generator): publishes and lock releases are plain writes, so
    replaying them through faults is safe and *required* — the
    decision is already made.  Shared with the 2PL baseline."""
    for _attempt in range(_APPLY_ATTEMPTS):
        try:
            yield from op_factory()
            return
        except RecoverableError:
            yield from backoff.pause()
    raise TxnError(
        f"idempotent commit write did not land within "
        f"{_APPLY_ATTEMPTS} attempts"
    )


class _ReadEntry:
    """One validated-snapshot obligation: *lock*'s word must still be
    *version* at commit."""

    __slots__ = ("lock", "version")

    def __init__(self, lock: SeqLock, version: int):
        self.lock = lock
        self.version = version


class _KeyState:
    """Everything the transaction knows about one table key."""

    __slots__ = ("store", "key", "index", "version", "exists", "value",
                 "frees", "pending")

    def __init__(self, store, key, index, version, exists, value, frees):
        self.store = store
        self.key = key
        self.index = index          # slot holding (or chosen for) the key
        self.version = version      # its snapshot version
        self.exists = exists
        self.value = value
        self.frees = frees          # insert candidates: [(index, version)]
        self.pending = None         # None | ("put", value) | ("delete",)


class _RecordState:
    """One raw SeqLock record's snapshot and buffered write."""

    __slots__ = ("lock", "version", "body", "pending")

    def __init__(self, lock, version, body):
        self.lock = lock
        self.version = version
        self.body = body
        self.pending = None


class _WriteEntry:
    """One slot/record to lock and publish at commit."""

    __slots__ = ("lock", "rkey", "version", "body")

    def __init__(self, lock, rkey, version, body):
        self.lock = lock
        self.rkey = rkey            # (region name, offset): the lock order
        self.version = version      # expected pre-lock version
        self.body = body


class Txn:
    """One transaction attempt: buffered reads/writes + OCC commit.

    Created by :meth:`TxnRuntime.begin` (or handed to the closure by
    :meth:`TxnRuntime.run`).  All methods are generators driven by the
    simulation.  A ``Txn`` is single-shot: after :meth:`commit` or
    :meth:`abort` it refuses further use.
    """

    def __init__(self, runtime: "TxnRuntime", token: int, deadline):
        self.runtime = runtime
        self.client = runtime.client
        self.token = token
        self.deadline = deadline
        self._phase = "open"
        self._reads: dict = {}      # rkey -> _ReadEntry
        self._keys: dict = {}       # (region, key) -> _KeyState
        self._records: dict = {}    # rkey -> _RecordState
        self._insert_taken: set = set()
        self._read_backoff = Backoff(self.client.sim, runtime._rngs["read"])

    @property
    def phase(self) -> str:
        """``open`` | ``committing`` | ``committed`` | ``aborted``."""
        return self._phase

    def _ensure_open(self):
        if self._phase != "open":
            raise TxnMisuseError(
                f"transaction already {self._phase}; begin a new one"
            )

    # -- the read-set ---------------------------------------------------------

    def _note_read(self, lock: SeqLock, version: int):
        """Record one snapshot in the read-set; a second look at the
        same word must agree with the first or the snapshot is already
        torn."""
        rkey = (lock.mapping.name, lock.offset)
        entry = self._reads.get(rkey)
        if entry is None:
            self._reads[rkey] = _ReadEntry(lock, version)
        elif entry.version != version:
            raise TxnConflictError(
                f"snapshot of {rkey} torn mid-transaction "
                f"(v{entry.version} -> v{version})"
            )
        return rkey

    def _snapshot_slot(self, store, index):
        """One even-versioned slot snapshot (generator), read-set
        recorded.  Retries while a writer holds the word."""
        for _attempt in range(_SNAP_RETRIES):
            version, key_len, key, value = yield from store.snapshot_slot(
                index
            )
            if version % 2 == 0:
                self._note_read(store.slot_lock(index), version)
                return version, key_len, key, value
            self.runtime._m_read_retries.inc()
            yield from self._read_backoff.pause()
        raise TxnConflictError(
            f"slot {index} stayed write-locked through "
            f"{_SNAP_RETRIES} snapshots"
        )

    def _lookup(self, store, key: bytes):
        """Probe *store* for *key* (generator); caches the state so a
        transaction reads each key from the network exactly once."""
        store._check_key(key)
        skey = (store.mapping.name, key)
        state = self._keys.get(skey)
        if state is not None:
            return state
        # the chain's reusable slots are the insert candidates; every
        # slot crossed is in the read-set, so a racing insert anywhere
        # on the chain invalidates this lookup at commit
        outcome, index, snapshot, frees = yield from ops.walk(
            key, store.chain(key), partial(self._snapshot_slot, store))
        if outcome == ops.HIT:
            state = _KeyState(store, key, index, snapshot[0], True,
                              snapshot[3], frees)
        else:
            state = _KeyState(store, key, None, None, False, None, frees)
        self._keys[skey] = state
        return state

    # -- buffered table ops ---------------------------------------------------

    def get(self, store, key: bytes):
        """Transactional lookup (generator): the committed value at
        snapshot time, or this transaction's own buffered write."""
        self._ensure_open()
        state = yield from self._lookup(store, key)
        if state.pending is not None:
            return state.pending[1] if state.pending[0] == "put" else None
        return state.value if state.exists else None

    def put(self, store, key: bytes, value: bytes):
        """Buffer an insert/overwrite (generator); applied at commit."""
        self._ensure_open()
        if len(value) > store.value_size:
            raise KvError(
                f"value of {len(value)} bytes exceeds slot value size "
                f"{store.value_size}"
            )
        state = yield from self._lookup(store, key)
        if state.index is None:
            # an absent key claims an insert slot now, so two inserts
            # in one transaction never target the same free slot
            for index, version in state.frees:
                if (store.mapping.name, index) not in self._insert_taken:
                    state.index, state.version = index, version
                    self._insert_taken.add((store.mapping.name, index))
                    break
            else:
                raise KvFullError()
        state.pending = ("put", bytes(value))

    def delete(self, store, key: bytes):
        """Buffer a delete (generator); returns whether the key was
        visible to this transaction."""
        self._ensure_open()
        state = yield from self._lookup(store, key)
        if state.pending is not None and state.pending[0] == "put":
            # deleting our own insert just cancels it; deleting our own
            # overwrite tombstones the committed slot
            state.pending = ("delete",) if state.exists else None
            return True
        if state.pending is not None:
            return False  # already deleted in this transaction
        if not state.exists:
            return False
        state.pending = ("delete",)
        return True

    # -- raw SeqLock records --------------------------------------------------

    def _record_state(self, lock: SeqLock):
        rkey = (lock.mapping.name, lock.offset)
        state = self._records.get(rkey)
        if state is not None:
            return state
        for _attempt in range(_SNAP_RETRIES):
            blob = yield from lock.mapping.read(lock.offset,
                                                lock.record_size)
            version = int.from_bytes(blob[:_WORD], "little")
            if version % 2 == 0:
                self._note_read(lock, version)
                state = _RecordState(lock, version, blob[_WORD:])
                self._records[rkey] = state
                return state
            self.runtime._m_read_retries.inc()
            yield from self._read_backoff.pause()
        raise TxnConflictError(
            f"record at {rkey} stayed write-locked through "
            f"{_SNAP_RETRIES} snapshots"
        )

    def read_record(self, lock: SeqLock):
        """Snapshot a raw SeqLock record's body (generator)."""
        self._ensure_open()
        state = yield from self._record_state(lock)
        return state.pending if state.pending is not None else state.body

    def write_record(self, lock: SeqLock, body: bytes):
        """Buffer a full-body write of a raw record (generator)."""
        self._ensure_open()
        if len(body) > lock.body_size:
            raise TxnMisuseError(
                f"body of {len(body)} bytes exceeds record body "
                f"{lock.body_size}"
            )
        state = yield from self._record_state(lock)
        state.pending = bytes(body)

    # -- commit ---------------------------------------------------------------

    def _pending_writes(self):
        writes = []
        for state in self._keys.values():
            if state.pending is None:
                continue
            store = state.store
            lock = store.slot_lock(state.index)
            if state.pending[0] == "put":
                body = ops.encode_body(state.key, state.pending[1],
                                       store.key_size, store.value_size)
            else:
                body = ops.encode_body(b"", b"", store.key_size,
                                       store.value_size, tombstone=True)
            writes.append(_WriteEntry(
                lock, (lock.mapping.name, lock.offset), state.version, body
            ))
        for rkey, state in self._records.items():
            if state.pending is None:
                continue
            writes.append(_WriteEntry(state.lock, rkey, state.version,
                                      state.pending))
        # deadlock freedom: every transaction locks in this same order
        writes.sort(key=lambda w: w.rkey)
        return writes

    def _validate(self, write_rkeys):
        """Re-read every read-only member of the read-set (generator):
        one batched round of version words, all of which must still
        carry their snapshot versions."""
        checks = [(rkey, entry) for rkey, entry in sorted(self._reads.items())
                  if rkey not in write_rkeys]
        if not checks:
            return
        client = self.client
        with client.rsan.exempt(client._rsan_actor):
            batch = client.batch()
            futures = []
            for rkey, entry in checks:
                fut = yield from batch.read(entry.lock.mapping,
                                            entry.lock.offset, _WORD)
                futures.append((rkey, entry, fut))
            yield from batch.flush()
            stale = None
            for rkey, entry, fut in futures:
                word = yield from fut.wait()
                observed = int.from_bytes(word, "little")
                if stale is None and observed != entry.version:
                    stale = (rkey, entry.version, observed)
        if stale is not None:
            raise TxnConflictError(
                f"read of {stale[0]} invalidated: "
                f"v{stale[1]} -> v{stale[2]}"
            )

    def commit(self):
        """Lock, validate, publish (generator).

        Raises :class:`TxnConflictError` (recoverable) when beaten;
        past validation the commit is irrevocable and rides out faults
        by replaying its idempotent writes.
        """
        self._ensure_open()
        runtime = self.runtime
        client = self.client
        sim = client.sim
        start = sim.now
        self._phase = "committing"
        writes = self._pending_writes()
        write_rkeys = {w.rkey for w in writes}
        replay = Backoff(sim, runtime._rngs["apply"], base_s=1e-3,
                         max_s=50e-3)
        won = []  # per write, filled in as each intent is settled
        decided = False
        try:
            if self.deadline is not None and sim.now >= self.deadline:
                raise DeadlineExceededError(
                    "transaction deadline passed before commit"
                )
            if writes:
                yield from try_locks(
                    [(w.lock, w.version, self.token) for w in writes], won)
                if not all(won):
                    lost = writes[won.index(False)]
                    raise TxnConflictError(
                        f"write intent on {lost.rkey} lost to a "
                        "concurrent writer"
                    )
            yield from self._validate(write_rkeys)
            # -- the commit point: every write below is idempotent and
            # replayed until it lands, so the decision cannot tear
            decided = True
            read_keys = [entry.lock._sync_key(entry.version)
                         for rkey, entry in self._reads.items()
                         if rkey not in write_rkeys]
            write_keys = [w.lock._sync_key(w.version + 2) for w in writes]
            client.rsan.txn_commit(client._rsan_actor,
                                   read_keys=read_keys,
                                   write_keys=write_keys)
            if writes:
                yield from publishes(
                    [(w.lock.mapping, w.lock.offset, self.token,
                      w.version + 2, w.body) for w in writes],
                    drive=lambda redo: replay_idempotent(redo, replay))
            self._phase = "committed"
            runtime._m_commits.inc()
            runtime._m_writes.observe(len(writes))
            runtime._m_commit_s.observe(sim.now - start)
        except BaseException as exc:
            self._phase = "aborted"
            runtime._m_aborts.inc()
            if isinstance(exc, TxnConflictError):
                runtime._m_conflicts.inc()
            client.rsan.txn_abort(client._rsan_actor)
            if not decided:
                for entry in (w for w, got in zip(writes, won) if got):
                    yield from replay_idempotent(
                        lambda entry=entry: entry.lock.abort(entry.version),
                        replay,
                    )
            raise

    def abort(self):
        """Drop the transaction without committing.  Purely local:
        intent locks are only ever held inside :meth:`commit`, which
        releases them on its own failures."""
        self._ensure_open()
        self._phase = "aborted"
        self.runtime._m_aborts.inc()
        self.client.rsan.txn_abort(self.client._rsan_actor)


class TxnRuntime:
    """A transaction factory bound to one client.

    ``retries`` bounds :meth:`run`'s whole-transaction retry loop (an
    attempt budget); ``deadline`` is an absolute simulated time that
    outranks it.  Both default every transaction this runtime starts
    and can be overridden per call.
    """

    DEFAULT_RETRIES = 64

    def __init__(self, client, label: str = "txn", retries: int = None,
                 deadline: float = None):
        self.client = client
        self.label = label or "txn"
        self.retries = self.DEFAULT_RETRIES if retries is None else retries
        self.deadline = deadline
        #: one jitter stream per retry loop, derived once, not per attempt
        self._rngs = {loop: Backoff.for_client(
            client, f"txn-{loop}-{self.label}").rng
            for loop in ("read", "apply", "run")}
        # -- metrics (client-local, shared per label)
        _m = client.obs.metrics
        _labels = dict(label=self.label, host=client.nic.host.host_id)
        self._m_commits = _m.counter("txn.commits", **_labels)
        self._m_aborts = _m.counter("txn.aborts", **_labels)
        self._m_conflicts = _m.counter("txn.conflicts", **_labels)
        self._m_retries = _m.counter("txn.retries", **_labels)
        self._m_read_retries = _m.counter("txn.read_retries", **_labels)
        self._m_commit_s = _m.histogram("txn.commit_s", **_labels)
        self._m_writes = _m.histogram("txn.writes_per_commit", **_labels)

    @property
    def commits(self) -> int:
        return int(self._m_commits.value)

    @property
    def aborts(self) -> int:
        return int(self._m_aborts.value)

    @property
    def conflicts(self) -> int:
        return int(self._m_conflicts.value)

    def begin(self, deadline: float = None) -> Txn:
        """One transaction attempt with a cluster-unique odd token."""
        seq = getattr(self.client, "_txn_token_seq", 0) + 1
        self.client._txn_token_seq = seq
        host_id = self.client.nic.host.host_id
        token = (_TOKEN_BASE | (host_id << 24)
                 | ((seq % (1 << 23)) << 1) | 1)
        return Txn(self, token,
                   self.deadline if deadline is None else deadline)

    def run(self, fn, deadline: float = None, retries: int = None):
        """Run *fn(txn)* to a committed result (generator).

        *fn* is a generator function taking the :class:`Txn`; it must
        be safe to re-run, because conflicts and recoverable faults
        abort the attempt and rerun it on the shared backoff.  The
        bound is the runtime's ``deadline``/``retries`` unless
        overridden here; exhaustion raises the typed
        ``DeadlineExceededError`` / ``RetryBudgetExceededError``.
        """
        deadline = self.deadline if deadline is None else deadline
        budget = self.retries if retries is None else retries
        backoff = Backoff(self.client.sim, self._rngs["run"],
                          deadline=deadline, budget=budget)
        while True:
            txn = self.begin(deadline=deadline)
            try:
                result = yield from fn(txn)
            except (TxnConflictError, RecoverableError):
                txn.abort()
                self._m_retries.inc()
                yield from backoff.pause()
                continue
            try:
                yield from txn.commit()
            except (TxnConflictError, RecoverableError):
                self._m_retries.inc()
                yield from backoff.pause()
                continue
            return result
