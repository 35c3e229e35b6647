"""The OCC transaction runtime: buffered ops, validate, lock, publish.

A :class:`Txn` buffers ``get``/``put``/``delete`` over any number of
hashkv tables and commits them atomically with optimistic concurrency
control:

1. **Snapshot reads.**  Every table slot a transaction touches — a
   :class:`~repro.coord.SeqLock` record — is captured in a *single*
   one-sided READ (``SeqLock.snapshot``) and its even version recorded
   in the read-set.  Probe chains record every slot they cross, so a
   concurrent insert that would change a lookup's outcome invalidates
   the transaction (phantom protection).
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

from collections import defaultdict
from typing import NamedTuple

from repro.coord import Backoff, SeqLock
from repro.coord.seqlock import (
    mint_token,
    publishes,
    replay_idempotent,
    try_locks,
)
from repro.core.errors import (
    DeadlineExceededError,
    FatalError,
    RecoverableError,
    RStoreError,
)
from repro.datapath import ops
from repro.kv.hashkv import KvError, KvFullError

__all__ = ["Txn", "TxnRuntime", "TxnError", "TxnConflictError",
           "TxnMisuseError"]

#: snapshot retries while a writer holds a record (matches hashkv)
_SNAP_RETRIES = 64
#: ``_Item.pending`` with no write buffered (``None`` is a buffered delete)
_UNWRITTEN = object()


class TxnError(RStoreError):
    """Transaction-layer failure."""


class TxnConflictError(TxnError, RecoverableError):
    """The transaction lost a race: a snapshot was invalidated or a
    write intent was beaten to a slot.  Recoverable — rerun it."""


class TxnMisuseError(TxnError, FatalError):
    """API misuse: operating on a transaction that already finished."""


def _rkey(lock: SeqLock) -> tuple:
    """``(region name, offset)``: a record's identity and lock order."""
    return lock.mapping.name, lock.offset


class _ReadEntry(NamedTuple):
    """One validated-snapshot obligation: *lock*'s word must still be
    *version* at commit."""

    lock: SeqLock
    version: int


class _Item:
    """One key the transaction snapshotted and may write: the table
    slot holding (or chosen for) it.

    The application sees *value* — the key's value, ``None`` while the
    key is absent — or its own buffered *pending*.  The slot codec is
    *store* and *key*; *walked* is the key's ``ops.walk``, and an
    absent key's *lock* and *version* stay ``None`` until it claims
    the slot ``ops.target`` names.
    """

    __slots__ = ("lock", "version", "value", "pending", "store", "key",
                 "walked")

    def __init__(self, lock, version, value, store, key, walked):
        self.lock = lock
        self.version = version      # the record's snapshot version
        self.value = value
        self.pending = _UNWRITTEN
        self.store = store
        self.key = key
        self.walked = walked

    @property
    def visible(self):
        """Read-your-writes: the buffered write, else the snapshot."""
        return self.value if self.pending is _UNWRITTEN else self.pending

    def body(self) -> bytes:
        """The slot body the buffered write publishes: a delete, or a
        cancelled insert that must still fill its slot, publishes a
        tombstone."""
        store = self.store
        if self.pending is None or self.pending is _UNWRITTEN:
            return ops.encode_body(b"", b"", store.key_size,
                                   store.value_size, tombstone=True)
        return ops.encode_body(self.key, self.pending, store.key_size,
                               store.value_size)


class _WriteEntry(NamedTuple):
    """One record to lock and publish at commit."""

    lock: SeqLock
    rkey: tuple                     # the lock order
    version: int                    # expected pre-lock version
    body: bytes


class Txn:
    """One transaction attempt: buffered reads/writes + OCC commit.

    Created by :meth:`TxnRuntime.begin` (or handed to the closure by
    :meth:`TxnRuntime.run`).  All methods are generators driven by the
    simulation.  A ``Txn`` is single-shot: after :meth:`commit` or
    :meth:`abort` it refuses further use.
    """

    def __init__(self, runtime: "TxnRuntime", token: int):
        self.runtime = runtime
        self.client = runtime.client
        self.token = token
        self.deadline = None        # absolute; :meth:`TxnRuntime.run` sets it
        self._phase = "open"
        self._reads: dict = {}      # rkey -> _ReadEntry
        self._items: dict = {}      # (region, key) -> _Item
        self._insert_taken = defaultdict(set)  # region -> slot indices
        self._walked_past = set()   # rkeys of taken never-used slots
        self._read_backoff = Backoff(self.client.sim, runtime._rngs["read"])

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
        rkey = _rkey(lock)
        entry = self._reads.get(rkey)
        if entry is None:
            self._reads[rkey] = _ReadEntry(lock, version)
        elif entry.version != version:
            raise TxnConflictError(
                f"snapshot of {rkey} torn mid-transaction "
                f"(v{entry.version} -> v{version})"
            )

    def _snapshot(self, lock: SeqLock):
        """One even-versioned raw snapshot of *lock*'s record
        (generator), read-set recorded: ``(version, body)``.  Retries
        while a writer holds the word."""
        for _attempt in range(_SNAP_RETRIES):
            version, body = yield from lock.snapshot()
            if version % 2 == 0:
                self._note_read(lock, version)
                return version, body
            self.runtime._m_read_retries.inc()
            yield from self._read_backoff.pause()
        raise TxnConflictError(
            f"record at {_rkey(lock)} stayed "
            f"write-locked through {_SNAP_RETRIES} snapshots"
        )

    def _walk(self, store, key: bytes, handles):
        """``ops.walk`` over the slot indices *handles* of *store*
        (generator).  Every slot crossed is in the read-set, so a racing
        insert anywhere on the chain invalidates this walk at commit."""

        def read_slot(index):
            lock = store.slot_lock(index)
            version, body = yield from self._snapshot(lock)
            return (version, *ops.parse_body(body, store.key_size), lock)

        return (yield from ops.walk(key, handles, read_slot))

    def _key_item(self, store, key: bytes):
        """Probe *store* for *key* (generator); caches the item so a
        transaction reads each key from the network exactly once."""
        store._check_key(key)
        ikey = (store.mapping.name, key)
        item = self._items.get(ikey)
        if item is not None:
            return item

        walked = yield from self._walk(store, key, store.chain(key))
        lock = version = value = None
        if walked[0] == ops.HIT:
            version, _key_len, _key, value, lock = walked[2]
        item = _Item(lock, version, value, store, key, walked)
        self._items[ikey] = item
        return item

    # -- buffered ops ---------------------------------------------------------

    def get(self, store, key: bytes):
        """Transactional lookup (generator): the committed value at
        snapshot time, or this transaction's own buffered write."""
        self._ensure_open()
        return (yield from self._key_item(store, key)).visible

    def put(self, store, key: bytes, value: bytes):
        """Buffer an insert/overwrite (generator); applied at commit."""
        self._ensure_open()
        if len(value) > store.value_size:
            raise KvError(
                f"value of {len(value)} bytes exceeds slot value size "
                f"{store.value_size}"
            )
        item = yield from self._key_item(store, key)
        if item.lock is None:
            # an absent key claims an insert slot now, so two inserts
            # in one transaction never target the same slot; a walk
            # that ended at a never-used slot an earlier insert took
            # walks on past it, to the end of the probe window
            taken = self._insert_taken[store.mapping.name]
            walked, rest = item.walked, store.chain(key)
            found = ops.target(walked, taken)
            while found is None and walked[0] == ops.FREE:
                self._walked_past.add(_rkey(store.slot_lock(walked[1])))
                rest = rest[rest.index(walked[1]) + 1:]
                walked = yield from self._walk(store, key, rest)
                found = ops.target(walked, taken)
            if found is None:
                raise KvFullError()
            index, item.version = found
            item.lock = store.slot_lock(index)
            taken.add(index)
        item.pending = bytes(value)

    def delete(self, store, key: bytes):
        """Buffer a delete (generator); returns whether the key was
        visible to this transaction."""
        self._ensure_open()
        item = yield from self._key_item(store, key)
        if item.visible is None:
            return False  # absent, or already deleted in this transaction
        # deleting our own insert just cancels it (commit may still
        # tombstone its slot, see _pending_writes); anything else
        # tombstones the committed slot
        item.pending = _UNWRITTEN if item.value is None else None
        return True

    # -- commit ---------------------------------------------------------------

    def _pending_writes(self):
        # a cancelled insert whose never-used slot another insert
        # walked past still fills it, with a tombstone: left never-used,
        # that slot would end every walk short of the later insert
        writes = [
            _WriteEntry(item.lock, _rkey(item.lock), item.version,
                        item.body())
            for item in self._items.values()
            if item.pending is not _UNWRITTEN
            or (item.lock is not None
                and _rkey(item.lock) in self._walked_past)
        ]
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
            for _rkey, entry in checks:
                yield from batch.read(entry.lock.mapping, entry.lock.offset,
                                      ops.WORD)
            yield from batch.flush()
            # a failed READ leaves none dangling
            words = yield from batch.wait_all()
        for (rkey, entry), word in zip(checks, words):
            observed = int.from_bytes(word, "little")
            if observed != entry.version:
                raise TxnConflictError(
                    f"read of {rkey} invalidated: "
                    f"v{entry.version} -> v{observed}"
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
            read_keys = [ops.sync_key(*rkey, entry.version)
                         for rkey, entry in self._reads.items()
                         if rkey not in write_rkeys]
            write_keys = [ops.sync_key(*w.rkey, w.version + 2)
                          for w in writes]
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
    attempt budget); a ``deadline`` given to :meth:`run` outranks it.
    """

    DEFAULT_RETRIES = 64

    def __init__(self, client, label: str = "txn", retries: int = None):
        self.client = client
        self.label = label or "txn"
        self.retries = self.DEFAULT_RETRIES if retries is None else retries
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

    def begin(self) -> Txn:
        """One transaction attempt with a cluster-unique odd token."""
        return Txn(self, mint_token(self.client))

    def run(self, fn, deadline: float = None):
        """Run *fn(txn)* to a committed result (generator).

        *fn* is a generator function taking the :class:`Txn`; it must
        be safe to re-run, because conflicts and recoverable faults
        abort the attempt and rerun it on the shared backoff.  The
        bound is the runtime's ``retries`` and *deadline*, an absolute
        simulated time; exhaustion raises the typed
        ``DeadlineExceededError`` / ``RetryBudgetExceededError``.
        """
        # pause() raises once the deadline passes or the budget drains
        budget = Backoff(self.client.sim, self._rngs["run"],
                         deadline=deadline, budget=self.retries)
        while True:
            txn = self.begin()
            txn.deadline = deadline
            try:
                result = yield from fn(txn)
            except (TxnConflictError, RecoverableError):
                txn.abort()
                self._m_retries.inc()
                yield from budget.pause()
                continue
            try:
                yield from txn.commit()
            except (TxnConflictError, RecoverableError):
                self._m_retries.inc()
                yield from budget.pause()
                continue
            return result
