"""One-sided distributed hash table over an RStore region.

Slot layout (all fields 8-byte aligned)::

    [ version 8B ][ key_len 8B ][ key ... ][ val_len 8B ][ value ... ]

Each slot is one :class:`~repro.coord.SeqLock` record: the version
word carries the writer lock (odd = a writer's token) and the
optimistic-read validation (``seqlock.snapshots``: snapshot and
re-check ride one doorbell, one round trip) — a SeqLock view per slot
a writer locks, writer contention paced by the shared
:class:`~repro.coord.Backoff` discipline.  A client remembers where it
last saw each key of a table — a slot and a version, never a value —
in one hint table its handles share, so a get of a known key reads its
slot in one round trip and a write to it locks in its first; a put of
a fresh key
CASes each slot of its walk from 0 and locks the never-used one that
ends the chain in the same round trip.  Deletes leave a tombstone
(``key_len`` of ``2**63-1``) so linear probing keeps finding later
entries.  The slot codec and the probe protocol — chain order, slot
classes, the store rule — live in :mod:`repro.datapath.ops`; this
module supplies the one-sided slot readers and the lock/publish steps.
"""

from __future__ import annotations

from repro.coord import Backoff, SeqLock
from repro.coord.seqlock import mint_token, snapshots, try_lock_or_snapshot
from repro.core.client import RStoreClient
from repro.core.errors import RStoreError
from repro.core.mapping import Mapping
from repro.datapath import ops
from repro.datapath.policy import ModeChooser, PathPolicy

__all__ = ["RKVStore", "KvError", "KvFullError"]

#: optimistic-read retries before giving up (a writer livelocking us
#: this long means something is deeply wrong in simulation)
_READ_RETRIES = 64


class KvError(RStoreError):
    """Key-value layer failure."""


class KvFullError(KvError):
    """No reusable slot within the probe window for this key."""

    def __init__(self):
        super().__init__(f"no slot for key within {ops.PROBE_LIMIT} probes")


class RKVStore:
    """A fixed-capacity hash table shared by any number of clients."""

    #: the linear-probe window (``ops.PROBE_LIMIT``), readable off a table
    probe_limit = ops.PROBE_LIMIT

    def __init__(self, client: RStoreClient, name: str, mapping: Mapping,
                 slots: int, key_size: int, value_size: int,
                 path_policy: str = None):
        self.client = client
        self.name = name
        self.mapping = mapping
        self.slots = slots
        self.key_size = key_size
        self.value_size = value_size
        self.slot_size = ops.slot_size(key_size, value_size)
        self._backoff = Backoff.for_client(client, f"kv-{name}")
        self._selector = self._chooser(client, path_policy, key_size,
                                       value_size)
        # -- client-local metrics
        _labels = dict(table=name, host=client.nic.host.host_id)
        self._m_read_retries = client.obs.metrics.counter(
            "kv.read_retries", **_labels)
        self._m_lock_retries = client.obs.metrics.counter(
            "kv.lock_retries", **_labels)
        #: the SeqLock counters the slots feed, resolved by the first
        #: one-sided access (a table served only server-side makes none)
        self._slot_counters = None
        #: key -> ``(slot index, version)`` of its last validated
        #: sighting on this client, whichever handle or data path made
        #: it: where a get reads, and a write tries its lock CAS, first
        region_id = mapping.desc.region_id
        held = client.location_hints.get(mapping.name)
        if held is None or held[0] != region_id:
            held = client.location_hints[mapping.name] = (region_id, {})
        self._hints: dict[bytes, tuple[int, int]] = held[1]

    # -- construction ----------------------------------------------------------

    @staticmethod
    def _chooser(client, path_policy, key_size: int, value_size: int):
        """The table's mode chooser; :class:`KvError` when *path_policy*
        is unknown or cannot carry this table's slots.  A lookup sends
        a key and may bring a whole slot back; a store sends one."""
        slot_size = ops.slot_size(key_size, value_size)
        try:
            return ModeChooser(client, path_policy, {
                "get": (key_size, slot_size),
                "put": (slot_size, 0),
            })
        except ValueError as exc:
            raise KvError(str(exc)) from None

    @classmethod
    def create(cls, client: RStoreClient, name: str, slots: int,
               key_size: int = 32, value_size: int = 128):
        """Allocate and map a fresh table (generator); its handle runs
        one-sided (:meth:`open` takes a path policy)."""
        if slots < 1:
            raise KvError("need at least one slot")
        slot_size = ops.slot_size(key_size, value_size)
        # stripe on a slot boundary so no slot (and no version word)
        # ever straddles two memory servers
        base_stripe = max(client.config.stripe_size, slot_size)
        stripe_size = (base_stripe // slot_size) * slot_size
        region_size = slots * slot_size
        yield from client.alloc(f"kv.{name}", region_size,
                                stripe_size=stripe_size)
        mapping = yield from client.map(f"kv.{name}")
        store = cls(client, name, mapping, slots, key_size, value_size)
        yield from client.notify(
            f"kv.{name}.meta",
            {"slots": slots, "key_size": key_size, "value_size": value_size},
        )
        return store

    @classmethod
    def open(cls, client: RStoreClient, name: str, path_policy: str = None):
        """Map an existing table from another client (generator)."""
        meta = yield from client.wait_note(f"kv.{name}.meta")
        mapping = yield from client.map(f"kv.{name}")
        return cls(client, name, mapping, meta["slots"], meta["key_size"],
                   meta["value_size"], path_policy)

    # -- helpers -----------------------------------------------------------------

    def _check_key(self, key: bytes) -> None:
        if not key:
            raise KvError("empty keys are not allowed")
        if len(key) > self.key_size:
            raise KvError(
                f"key of {len(key)} bytes exceeds slot key size "
                f"{self.key_size}"
            )

    def _slot_offset(self, index: int) -> int:
        return (index % self.slots) * self.slot_size

    def slot_lock(self, index: int) -> SeqLock:
        """The SeqLock view over one slot (cheap, created per use).

        Public because the transaction runtime (:mod:`repro.txn`)
        locks and publishes slots through the same per-slot version
        metadata the table's own writers use.
        """
        return SeqLock(self.mapping, self._slot_offset(index),
                       self.slot_size - ops.WORD, self._counters())

    def _counters(self) -> tuple:
        """The ``SeqLock.counters`` of this table's slots."""
        if self._slot_counters is None:
            self._slot_counters = SeqLock.counters(self.mapping)
        return self._slot_counters

    def chain(self, key: bytes) -> list:
        """The slot indices *key* may live in, in probe order."""
        return ops.chain(ops.hash64(key), self.slots)

    def snapshot_slot(self, index: int):
        """One raw slot snapshot in a single one-sided READ (generator):
        the slot's ``SeqLock.snapshot`` — unvalidated, the version may
        be odd — parsed into ``(version, key_len, key, value)``."""
        version, body = yield from self.slot_lock(index).snapshot()
        return (version, *ops.parse_body(body, self.key_size))

    def _hint(self, key: bytes, index: int, version: int) -> None:
        """Remember that *key* was seen published at slot *index* under
        *version*.  Never more entries than slots: past that the oldest
        goes (a stale hint costs a round trip, never a wrong answer)."""
        hints = self._hints
        if key not in hints and len(hints) >= self.slots:
            del hints[next(iter(hints))]
        hints[key] = (index, version)

    def _hinted(self, key: bytes):
        """The slot index *key*'s hint names, or ``None``."""
        hint = self._hints.get(key)
        return None if hint is None else hint[0]

    def _found(self, key: bytes, outcome: str, index, version) -> None:
        """Keep what a lookup of *key* settled on: a hit hints its slot
        and version, anything else drops the key's hint."""
        if outcome == ops.HIT:
            self._hint(key, index, version)
        else:
            self._hints.pop(key, None)

    def _read_slot(self, index: int):
        """Optimistically read one consistent slot snapshot (generator):
        the validated read (``seqlock.snapshots``), rerun while a writer
        races it, at most ``_READ_RETRIES`` times."""
        offset = self._slot_offset(index)
        self._counters()  # series register on first use, not first race
        for _try in range(_READ_RETRIES):
            (snapshot,) = yield from snapshots(self.mapping, (offset,),
                                               self.slot_size)
            if snapshot is not None:
                return snapshot[0], *ops.parse_body(snapshot[1],
                                                    self.key_size)
            self._raced()
        raise KvError(
            f"slot {index} kept changing under {_READ_RETRIES} reads")

    def _claiming_reader(self, token: int, held: list):
        """The slot reader of a ``put``'s walk: up to the first
        tombstone, each hop posts ``[READ slot, CAS 0 → token]``
        (:func:`try_lock_or_snapshot`) where :meth:`_read_slot` posts
        ``[READ slot, READ word]`` — one doorbell and two WRs either way.

        A CAS from 0 wins only on a never-used slot, which ends the
        chain; with no tombstone crossed it is the slot the store rule
        claims, so the hop appends its index to *held* and the put
        publishes next.  A lost CAS returns the word, which validates
        the READ as the second READ would have.  Where it cannot — a
        writer's odd token, a fault, an unproven order — the hop falls
        back to :meth:`_read_slot`.  Past a tombstone the store rule
        claims the tombstone, so no CAS is posted there.
        """
        speculating = True

        def read(index):
            nonlocal speculating
            found = None
            if speculating:
                won, snapshot = yield from try_lock_or_snapshot(
                    self.slot_lock(index), 0, token)
                if won:
                    held.append(index)
                    return 0, 0, b"", b""
                if snapshot is not None:
                    found = (snapshot[0],
                             *ops.parse_body(snapshot[1], self.key_size))
            if found is None:
                found = yield from self._read_slot(index)
            speculating = speculating and found[1] != ops.TOMBSTONE
            return found

        return read

    def _raced(self) -> None:
        """Count one slot read a writer raced, in the table's and the
        SeqLock's counters."""
        self._m_read_retries.inc()
        self._counters()[0].inc()

    def _read_slots(self, indices: list):
        """Validated snapshots of many slots in one shared flush and
        one round trip (generator): the SeqLock optimistic read,
        amortized.  Returns one ``_read_slot``-shaped tuple per index,
        or ``None`` where a writer raced the read."""
        found = yield from snapshots(
            self.mapping, [self._slot_offset(index) for index in indices],
            self.slot_size)
        return [snap and (snap[0], *ops.parse_body(snap[1], self.key_size))
                for snap in found]

    # -- the API -------------------------------------------------------------------

    def txn(self, label: str = None, retries: int = None):
        """A transaction runtime bound to this table's client.

        Returns a :class:`repro.txn.TxnRuntime`; transactions started
        from it may span this table, other tables, and raw SeqLock
        records — see :mod:`repro.txn`.
        """
        from repro.txn import TxnRuntime  # deferred: txn imports kv

        return TxnRuntime(
            self.client,
            label=label if label is not None else f"kv-{self.name}",
            retries=retries,
        )

    def put(self, key: bytes, value: bytes):
        """Insert or overwrite (generator)."""
        self._check_key(key)
        if len(value) > self.value_size:
            raise KvError(
                f"value of {len(value)} bytes exceeds slot value size "
                f"{self.value_size}"
            )
        mode, token = self._selector.pick("put")
        if mode == PathPolicy.ONE_SIDED:
            yield from self._put_one_sided(key, value)
        else:
            stored = yield from self.client.datapath.kv_put(self, key, value)
            if not stored:
                raise KvFullError()
        self._selector.done("put", mode, token)

    def _put_one_sided(self, key: bytes, value: bytes):
        index, version, token = yield from self._lock_slot(key, claim=True)
        yield from self.slot_lock(index).publish(
            token, ops.encode_body(key, value, self.key_size, self.value_size),
            new_version=version + 2)
        self._hint(key, index, version + 2)

    def _lock_slot(self, key: bytes, claim: bool):
        """Lock the slot a write of *key* goes to (generator): returns
        ``(index, version, token)``, the word CAS'd from *version* to
        the unique odd *token* — or ``None`` when *key* is absent and
        not to be *claim*ed (``KvFullError`` when there is no slot to
        claim).  The token settles an ambiguous CAS completion with one
        read of the word (``seqlock.try_locks``), so a lost completion
        never leaves the handle unsure whether it holds the slot.

        A hinted key tries its hint first: :func:`try_lock_or_snapshot`,
        one round trip.  A lost CAS whose READ validated still holding
        *key* CASes again from that version; anything else drops the
        hint and walks the chain, as an unhinted write does.  A ``put``
        walks with :meth:`_claiming_reader`, whose hops CAS from 0 up to
        the first tombstone: a fresh key whose chain ends before one is
        locked by the walk itself, so its put takes two round trips.
        Otherwise the slot the walk settled on is CAS'd from the version
        seen, and a CAS lost to a racer backs off and walks again.

        No re-read under the lock: the CAS moved the word *from* a
        version seen holding *key* (or claimable), and versions only
        move forward, so no writer published in between and the body is
        still the one classified — a racer that claimed the slot for
        another key bumped the version and our CAS lost; a CAS won from
        0 proves the slot was never used.  The same argument is why a
        hint needs no invalidation: a stale one never wins its CAS.
        ``put``, ``delete`` and the txn runtime rest on it.
        """
        self._backoff.reset()
        hint = self._hints.pop(key, None)
        while True:
            token = mint_token(self.client)
            if hint is not None:
                index, version = hint
                hint = None
                lock = self.slot_lock(index)
                won, snapshot = yield from try_lock_or_snapshot(
                    lock, version, token)
                if won:
                    return index, version, token
                if snapshot is not None:
                    version, body = snapshot
                    if ops.classify(*ops.parse_key(body), key) != ops.HIT:
                        continue  # the slot moved on: walk the chain
                    won = yield from lock.try_lock(version, token)
            else:
                held = []
                outcome, index, snapshot, reusable = yield from ops.walk(
                    key, self.chain(key),
                    self._claiming_reader(token, held) if claim
                    else self._read_slot)
                if held:  # the never-used slot that ended the chain
                    return index, 0, token
                if outcome == ops.HIT:
                    version = snapshot[0]
                elif not claim:
                    return None
                elif reusable:
                    index, version = reusable[0]
                else:
                    raise KvFullError()
                won = yield from self.slot_lock(index).try_lock(
                    version, token)
            if won:
                return index, version, token
            # lost the race; pause, then re-probe from scratch
            self._m_lock_retries.inc()
            yield from self._backoff.pause()

    def get(self, key: bytes):
        """Lookup (generator); returns the value or ``None``."""
        self._check_key(key)
        mode, token = self._selector.pick("get")
        if mode == PathPolicy.ONE_SIDED:
            # a hinted key reads its slot first: one round trip
            outcome, index, snapshot, _reusable = yield from ops.walk(
                key, self.chain(key), self._read_slot,
                hint=self._hinted(key))
            value = None
            if outcome == ops.HIT:
                value = snapshot[3]
            self._found(key, outcome, index, snapshot and snapshot[0])
        else:
            value = yield from self.client.datapath.kv_get(
                self, key, fetch=(mode == PathPolicy.REMOTE_FETCH)
            )
        self._selector.done("get", mode, token)
        return value

    def multi_get(self, keys: list):
        """Batched lookup (generator); values (or ``None``) in key order.

        One-sided under every path policy (``policy.ALLOWED_MODES``).
        Drives one ``ops.walk`` per key in lockstep: each walk yields
        the slot it wants — a hinted key's slot on the first flush —
        one batched read serves every pending walk per round
        (:meth:`_read_slots` — shared :class:`IoBatch` flushes instead
        of a blocking read per slot), and the answer is sent back in,
        under :meth:`get`'s per-slot retry budget.
        """
        for key in keys:
            self._check_key(key)

        def ask(index):
            # same budget, counters and failure mode as _read_slot: a
            # raced slot (answered ``None``) is simply asked for again
            for _try in range(_READ_RETRIES):
                snapshot = yield index
                if snapshot is not None:
                    return snapshot
                self._raced()
            raise KvError(
                f"slot {index} kept changing under {_READ_RETRIES} reads")

        results: list = [None] * len(keys)
        walks = [ops.walk(key, self.chain(key), ask, hint=self._hinted(key))
                 for key in keys]
        wanted = {i: next(walk) for i, walk in enumerate(walks)}
        while wanted:
            snapshots = yield from self._read_slots(list(wanted.values()))
            for i, snapshot in zip(list(wanted), snapshots):
                try:
                    wanted[i] = walks[i].send(snapshot)
                except StopIteration as done:
                    del wanted[i]
                    outcome, index, hit, _reusable = done.value
                    if outcome == ops.HIT:
                        results[i] = hit[3]
                    self._found(keys[i], outcome, index, hit and hit[0])
        return results

    def delete(self, key: bytes):
        """Remove (generator); returns whether the key existed.

        One-sided under every path policy (``policy.ALLOWED_MODES``
        says why).  Starts from the key's hint like ``put``, and leaves
        none behind.
        """
        self._check_key(key)
        locked = yield from self._lock_slot(key, claim=False)
        if locked is None:
            return False
        index, version, token = locked
        yield from self.slot_lock(index).publish(
            token, ops.encode_body(b"", b"", self.key_size, self.value_size,
                                   tombstone=True),
            new_version=version + 2)
        return True
