"""One-sided distributed hash table over an RStore region.

Each slot is one :class:`~repro.coord.SeqLock` record: the version
word carries the writer lock (odd = a writer's token) and the
optimistic-read validation (``seqlock.snapshots``: snapshot and
re-check ride one doorbell, one round trip) — a SeqLock view per slot
a writer locks, writer contention paced by the shared
:class:`~repro.coord.Backoff` discipline.  A client remembers where it
last saw each key of a table — a slot and a version, never a value —
in one hint table its handles share, so a get of a known key reads its
slot in one round trip and a write to it locks in its first; a put of
a fresh key CASes each slot of its walk from 0 and locks the
never-used one that ends the chain in the same round trip.  A get of
a key the client never located reads the first slots of its chain —
as many as the depths its hints locate other keys at make cheapest
(``ModeChooser.window``) — in one validated READ pair, since linear
probing lays them side by side.  The slot layout, tombstones and the
probe protocol — chain order, slot classes, the store rule — live in
:mod:`repro.datapath.ops`; this module supplies the one-sided slot
readers and the lock/publish steps.

**Probe-run segmentation.**  A handle on a server-side path drives
its own probe over the router's transport
(:class:`~repro.datapath.router.DataPathRouter`).  A probe chain
(``ops.chain``) may span stripe boundaries; consecutive same-host
slots group into *runs* and each run is one ``dp_exec`` — the server
walks it with the same ``ops.walk`` every prober uses and answers
with the walk's outcome.  ``ops.CONTINUE`` hands the chain to the
next run, exactly as the one-sided prober walks slot by slot.  A
store whose run crosses a tombstone but not the chain's end
(``ops.REUSABLE``) cannot be decided on one host (the store rule) and
falls back to the one-sided store.  A key the client holds a location
hint for goes first as a one-slot run to the hinted slot's host,
which answers it only on a hit (``ops.walk``'s *hint*: a stale hint
costs a round trip, never a wrong answer); the runs follow on a miss.
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
        #: key -> ``(slot index, version, hash)`` of its last validated
        #: sighting on this client, whichever handle or data path made
        #: it: where a get reads, and a write tries its lock CAS, first;
        #: ``(None, depth, hash)`` when its last lookup missed after
        #: walking *depth* slots, which the mode choice reads.  The
        #: key's ``ops.hash64`` rides along, so no op hashes a key its
        #: client has seen
        region_id = mapping.desc.region_id
        held = client.location_hints.get(mapping.name)
        if held is None or held[0] != region_id:
            held = client.location_hints[mapping.name] = (
                region_id, {}, [0] * ops.PROBE_LIMIT)
        self._hints: dict[bytes, tuple] = held[1]
        #: how many of those hints locate their key at each chain depth
        #: (``[0]``: at its home slot), in step with every hint set,
        #: replaced, evicted or dropped: the window an unhinted get
        #: reads (``ModeChooser.window``)
        self._depths: list[int] = held[2]

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
        """Map an existing table from another client (generator); a
        handle that may run server-side connects those paths to every
        host of the table here, before its first op."""
        meta = yield from client.wait_note(f"kv.{name}.meta")
        mapping = yield from client.map(f"kv.{name}")
        store = cls(client, name, mapping, meta["slots"], meta["key_size"],
                    meta["value_size"], path_policy)
        yield from store._selector.connect(mapping, ("get", "put"))
        return store

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

    def _hint(self, key: bytes, index, version: int, base: int) -> None:
        """Remember that *key*, of hash *base*, was seen published at
        slot *index* under *version* — or, *index* ``None``, that its
        last lookup missed after walking *version* slots.  Never more
        entries than slots: past that the oldest goes (a stale hint
        costs a round trip, never a wrong answer)."""
        hints = self._hints
        old = hints.get(key)
        hints[key] = hint = (index, version, base)
        if old is not None and old[0] == index:
            return  # the same slot, or another miss: the same depth
        if old is not None:
            self._count(old, -1)
        elif len(hints) > self.slots:
            self._count(hints.pop(next(iter(hints))), -1)
        self._count(hint, 1)

    def _forget(self, key: bytes):
        """Drop *key*'s hint; returns it, or ``None``."""
        hint = self._hints.pop(key, None)
        if hint is not None:
            self._count(hint, -1)
        return hint

    def _count(self, hint: tuple, step: int) -> None:
        """Move the depth histogram by *step* for *hint*, if it locates
        its key."""
        index, _version, base = hint
        if index is not None:
            self._depths[(index - base) % self.slots] += step

    def _base(self, key: bytes) -> int:
        """*key*'s ``ops.hash64``: its hint's, else hashed."""
        hint = self._hints.get(key)
        return ops.hash64(key) if hint is None else hint[2]

    def _hinted(self, key: bytes):
        """The slot index *key*'s hint names, or ``None``."""
        hint = self._hints.get(key)
        return None if hint is None else hint[0]

    def _found(self, key: bytes, outcome: str, index, version,
               base: int) -> None:
        """Keep what a lookup of *key* (of hash *base*) settled on: a
        hit hints its slot and version; a miss replaces the hint with
        the depth it walked — to the never-used slot *index* that ended
        the chain, or the whole window when none did or the server
        walked it (its reply does not say where the chain ended)."""
        if outcome == ops.HIT:
            self._hint(key, index, version, base)
        else:
            self._hint(key, None, ops.PROBE_LIMIT if index is None
                       else (index - base) % self.slots + 1, base)

    def _pick(self, op: str, seen):
        """``(mode, window)`` of the next *op* of a key whose hint is
        *seen* (``None``: the client never saw it); *window* is how many
        slots from its home a one-sided ``get`` reads in its first round
        trip.  A hinted key expects its walk to read one slot; one whose
        last lookup missed, the depth that miss walked, all in its
        window; a never-seen one, that a get's window
        (``ModeChooser.window``) holds it, and a write, one slot."""
        if seen is not None:
            if seen[0] is not None:
                return self._selector.pick(op, 1, False), 1
            return self._selector.pick(op, seen[1], True, seen[1]), seen[1]
        if op != "get":
            return self._selector.pick(op, 1, False), 1
        window = self._selector.window(self._depths)
        return self._selector.pick(op, window, False, window), window

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

    def _window_reader(self, home: int, width: int):
        """The slot reader of an unhinted get's walk, which starts at
        *home*: its first hop reads the *width* slots from *home* on —
        clipped at the table's end and at *home*'s stripe — as one
        validated pair (``seqlock.snapshots`` over a run), and each hop
        the window answers costs nothing more.  A slot the pair could
        not validate, and each slot past the window, is read on its own
        (:meth:`_read_slot`); a raced one counts as a retry."""
        stripe = self.mapping.desc.stripe_size // self.slot_size
        width = min(width, self.slots - home, stripe - home % stripe)
        if width == 1:
            return self._read_slot
        window = None

        def read(index):
            nonlocal window
            if window is None:
                found = yield from snapshots(
                    self.mapping, (self._slot_offset(home),),
                    self.slot_size, width)
                window = dict(zip(range(home, home + width), found))
            if index in window:
                snapshot = window.pop(index)
                if snapshot is not None:
                    return snapshot[0], *ops.parse_body(snapshot[1],
                                                        self.key_size)
                self._raced()
            return (yield from self._read_slot(index))

        return read

    def _claiming_reader(self, token: int, held: list):
        """The slot reader of a ``put``'s walk: up to the first
        tombstone, each hop posts ``[READ slot, CAS 0 → token]``
        (:func:`try_lock_or_snapshot`) where :meth:`_read_slot` posts
        ``[READ slot, READ word]`` — one doorbell and two WRs either way.

        A won CAS holds a never-used slot ending a chain with no
        tombstone crossed, the slot ``ops.target`` would name, so the
        hop appends its index to *held* and the put publishes next.  A
        lost CAS returns the word, which validates the READ as the
        second READ would have.  Where it cannot — a writer's odd token,
        a fault, an unproven order — the hop falls back to
        :meth:`_read_slot`.
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

    def _probe_runs(self, desc, base: int):
        """The probe chain from hash *base* as maximal same-host runs
        ``(host_id, [(slot offset, arena address), ...])``, in probe
        order — yielded lazily, so a chain settled in its first run
        never locates the slots past the next host change.  A slot
        never straddles a stripe, so each stripe the chain enters is
        located once and its slots' addresses follow by arithmetic."""
        host_id, run = None, []
        start = end = 0  # the located stripe's region offsets
        for index in ops.chain(base, self.slots):
            slot_off = index * self.slot_size
            if not start <= slot_off < end:
                stripe = desc.stripes[slot_off // desc.stripe_size]
                start = stripe.index * desc.stripe_size
                end = start + stripe.length
                slot_host, shift = stripe.host_id, stripe.addr - start
            if run and slot_host != host_id:
                yield host_id, run
                run = []
            host_id = slot_host
            run.append((slot_off, slot_off + shift))
        yield host_id, run

    def _server_op(self, op: str, key: bytes, base: int, fetch: bool,
                   **fields):
        """Drive server-side *op* of *key*, of hash *base*, to a settled
        reply (generator): the hinted run, then the probe runs until one
        settles it (the last ``ops.CONTINUE`` when none does).  The
        router re-drives an attempt a busy slot or a stale epoch ended."""
        router = self.client.datapath
        mapping = self.mapping

        def request(slots, **hint):
            return router.request(
                op, mapping, key=key, **fields, slots=slots, **hint,
                key_size=self.key_size, value_size=self.value_size,
            )

        def attempt():
            desc = mapping.desc
            index = self._hinted(key)
            if index is not None:
                slot_off = index * self.slot_size
                host_id, addr = router.locate(desc, slot_off, self.slot_size)
                reply = yield from router.exec(
                    host_id, request([], hint=(slot_off, addr)), fetch)
                if reply[0] != ops.CONTINUE:
                    return reply
            for host_id, slots in self._probe_runs(desc, base):
                reply = yield from router.exec(host_id, request(slots), fetch)
                if reply[0] != ops.CONTINUE:
                    break
            return reply

        return router.drive(mapping, attempt, f"{op} of {key!r}")

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
        seen = self._hints.get(key)
        base = ops.hash64(key) if seen is None else seen[2]
        if self._pick("put", seen)[0] == PathPolicy.ONE_SIDED:
            yield from self._put_one_sided(key, value, base)
        else:
            reply = yield from self._server_op("kv_put", key, base, False,
                                               value=value)
            if reply[0] == ops.REUSABLE:  # no one host can rank it
                yield from self._put_one_sided(key, value, base)
            elif reply[0] == ops.STORED:  # hint the slot it published
                _stored, version, slot_off = reply
                self._hint(key, slot_off // self.slot_size, version, base)
            else:
                raise KvFullError()

    def _put_one_sided(self, key: bytes, value: bytes, base: int):
        index, version, token = yield from self._lock_slot(key, base,
                                                           claim=True)
        yield from self.slot_lock(index).publish(
            token, ops.encode_body(key, value, self.key_size, self.value_size),
            new_version=version + 2)
        self._hint(key, index, version + 2, base)

    def _lock_slot(self, key: bytes, base: int, claim: bool):
        """Lock the slot a write of *key*, of hash *base*, goes to
        (generator): returns ``(index, version, token)``, the word CAS'd
        from *version* to the unique odd *token* — or ``None`` when
        *key* is absent and not to be *claim*ed (``KvFullError`` when
        there is no slot to claim).  The token settles an ambiguous CAS
        completion with one read of the word (``seqlock.try_locks``), so
        a lost completion never leaves the handle unsure whether it
        holds the slot.

        A hinted key tries its hint first: :func:`try_lock_or_snapshot`,
        one round trip.  A lost CAS whose READ validated still holding
        *key* CASes again from that version; anything else drops the
        hint and walks the chain, as an unhinted write does.  A ``put``
        walks with :meth:`_claiming_reader`, whose hops CAS from 0 up to
        the first tombstone: a fresh key whose chain ends before one is
        locked by the walk itself, so its put takes two round trips.
        Otherwise the slot ``ops.target`` names is CAS'd from its
        version, and a CAS lost to a racer backs off and walks again.

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
        hint = self._forget(key)
        if hint is not None and hint[0] is None:
            hint = None  # a remembered miss locates no slot
        while True:
            token = mint_token(self.client)
            if hint is not None:
                index, version, _hash = hint
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
                walked = yield from ops.walk(
                    key, ops.chain(base, self.slots),
                    self._claiming_reader(token, held) if claim
                    else self._read_slot)
                if held:  # the never-used slot that ended the chain
                    return held[0], 0, token
                if not claim and walked[0] != ops.HIT:
                    return None
                found = ops.target(walked, ())
                if found is None:
                    raise KvFullError()
                index, version = found
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
        seen = self._hints.get(key)
        base = ops.hash64(key) if seen is None else seen[2]
        mode, window = self._pick("get", seen)
        if mode == PathPolicy.ONE_SIDED:
            # a hinted key reads its slot first: one round trip; any
            # other reads its window of the chain in its first
            hinted = None if seen is None else seen[0]
            outcome, index, snapshot, _reusable = yield from ops.walk(
                key, ops.chain(base, self.slots),
                self._read_slot if hinted is not None
                else self._window_reader(base % self.slots, window),
                hint=hinted)
            value = None
            if outcome == ops.HIT:
                value = snapshot[3]
            self._found(key, outcome, index, snapshot and snapshot[0], base)
        else:
            reply = yield from self._server_op(
                "kv_get", key, base, mode == PathPolicy.REMOTE_FETCH)
            value = index = version = None
            if reply[0] == ops.HIT:
                _hit, value, version, slot_off = reply
                index = slot_off // self.slot_size
            self._found(key, reply[0], index, version, base)
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
        bases = [self._base(key) for key in keys]
        walks = [ops.walk(key, ops.chain(base, self.slots), ask,
                          hint=self._hinted(key))
                 for key, base in zip(keys, bases)]
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
                    self._found(keys[i], outcome, index, hit and hit[0],
                                bases[i])
        return results

    def delete(self, key: bytes):
        """Remove (generator); returns whether the key existed.

        One-sided under every path policy (``policy.ALLOWED_MODES``
        says why).  Starts from the key's hint like ``put``, and leaves
        none behind.
        """
        self._check_key(key)
        locked = yield from self._lock_slot(key, self._base(key),
                                            claim=False)
        if locked is None:
            return False
        index, version, token = locked
        yield from self.slot_lock(index).publish(
            token, ops.encode_body(b"", b"", self.key_size, self.value_size,
                                   tombstone=True),
            new_version=version + 2)
        return True
