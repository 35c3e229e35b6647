"""A sequence lock: writer-versioned optimistic reads over a body.

Layout (the body immediately follows the version word; the bytes and
the happens-before key of a version are ``datapath.ops.split`` and
``datapath.ops.sync_key``, dependency-free so the server-op executor
shares them)::

    [ version 8B ][ body ... ]

Version word semantics:

* ``0``      — never written
* even > 0   — stable; bumped by 2 on every published mutation
* odd        — a writer holds the word: its unique token
  (:func:`mint_token`), CAS'd in over the even value

Readers never lock: snapshot the whole record in one one-sided read,
then validate by re-reading the version word; a change (or an odd
value) means the read raced a writer — retry.  Both READs ride one
doorbell (:func:`snapshots`): a queue pair executes them in post
order, so the validation costs no second round trip.  Writers serialize
through a remote CAS on the version word (:func:`try_locks`), then write
the body and the next even version as one ordered pair (:func:`publishes`).
A writer that already knows a record's version queues the READ of the
record ahead of its CAS on one doorbell (:func:`try_lock_or_snapshot`):
a lost CAS then validates that READ instead of costing a re-read.  A
CAS from 0 there is a probe that claims a never-used record if it wins.

A ``SeqLock`` is a cheap *view* over one record of any mapped region —
data structures instantiate one per record they lock (hashkv: per slot).

Every writer — ``kv/hashkv``'s, the transaction runtime
(``repro.txn``) and the 2PL baseline — locks with its token: the token
names the holder, so an ambiguous CAS completion (the NIC may or may
not have applied it) is resolved with one follow-up read of the word
(``coord.base.cas_result``) — the RemoteLock discipline, applied to
the version word.  Readers are oblivious: any odd value means
"writer in flight".  Past its decision a transaction drives its
publishes and releases home with :func:`replay_idempotent`.
"""

from __future__ import annotations

from functools import partial

from repro.core.errors import RecoverableError
from repro.datapath.ops import WORD as _WORD, split, sync_key

from repro.coord.base import CoordError, cas_result, read_word, write_word

__all__ = ["SeqLock", "snapshots", "try_locks", "try_lock_or_snapshot",
           "publishes", "mint_token", "replay_idempotent"]

#: tokens live far above any version a record can reach
_TOKEN_BASE = 1 << 62
#: replays of one idempotent commit/abort write before declaring the
#: cluster unrecoverable (each replay itself rides the data path's
#: internal retries, so this spans many seconds of simulated faults)
_APPLY_ATTEMPTS = 64


def mint_token(client, space: int = 0) -> int:
    """A cluster-unique odd lock word naming one holder: the host, the
    next value of the client's one token sequence, and *space* (0 or
    1), which keeps two protocols minting on one client disjoint."""
    client.token_seq += 1
    return (_TOKEN_BASE | (space << 61) | (client.nic.host.host_id << 24)
            | ((client.token_seq % (1 << 23)) << 1) | 1)


def snapshots(mapping, offsets, record_size: int, run: int = 1):
    """The optimistic validated read of the records at *offsets*, in
    one flush and one round trip (generator) — its only implementation.

    Each offset starts a *run* of records laid end to end.  Queues
    ``[READ run, READ words]`` per offset on one
    :class:`~repro.core.pipeline.IoBatch`, the second READ spanning the
    run from its first version word to its last — for a lone record,
    that word alone.  Where the batch vouches for the pair's order
    (``IoBatch.in_order``) the second READ *is* the validation; where
    it cannot — a run spanning servers, a replayed READ, the two-sided
    ablation — each record's word is read once more, so the answer
    never rests on an unproven order.  Answers ``(version, body)`` per
    record, run by run, or ``None`` where a writer raced the read (odd
    version, or the word moved).  Protocol traffic, hence RSan-exempt;
    a validated snapshot joins the clock its version was published under.
    """
    client = mapping.client
    rsan, actor = client.rsan, client._rsan_actor
    batch = client.batch()
    found = []
    with rsan.exempt(actor):
        pairs = []
        for offset in offsets:
            records = yield from batch.read(mapping, offset,
                                            run * record_size)
            words = yield from batch.read(
                mapping, offset, (run - 1) * record_size + _WORD)
            pairs.append((records, words))
        yield from batch.flush()
        yield from batch.wait_all()  # a failed READ leaves none dangling
        for offset, (records, words) in zip(offsets, pairs):
            blob, checks = records.value, words.value
            ordered = batch.in_order(records, words)
            for at in range(0, run * record_size, record_size):
                version, body = split(blob[at:at + record_size])
                check = checks[at:at + _WORD]
                if version % 2 == 0 and not ordered:
                    # registered on first use: the proven path pays no
                    # lookup
                    client.obs.metrics.counter(
                        "coord.seqlock.reads_revalidated",
                        region=mapping.name,
                        host=client.nic.host.host_id).inc()
                    check = yield from mapping.read(offset + at, _WORD)
                if version % 2 or int.from_bytes(check, "little") != version:
                    found.append(None)
                    continue
                rsan.sync_acquire(actor, sync_key(mapping.name, offset + at,
                                                  version))
                found.append((version, body))
    return found


def try_locks(intents, won=None):
    """CAS every ``(lock, version, token)`` intent's word from *version*
    to its unique odd *token* in one flush and one round trip
    (generator); answers who won, in order, appending to *won* as each
    is settled — and settles them all before it raises, every CAS having
    left by then, so a caller who needed them all can release exactly
    what it won.

    The token names its holder, so an ambiguous CAS completion (lost
    ack, or flushed behind a failed request) is settled by one read of
    the word (``cas_result``): acquisition is exactly-once under faults.
    """
    client = intents[0][0].mapping.client
    rsan, actor = client.rsan, client._rsan_actor
    # a lone CAS is posted as it is: a batch is for sharing a doorbell
    batch = client.batch() if len(intents) > 1 else None
    won, futures, failed = [] if won is None else won, [], None
    with rsan.exempt(actor):
        for lock, version, token in intents:
            futures.append(
                (yield from lock.mapping.cas_async(lock.offset, version,
                                                   token))
                if batch is None
                else batch.cas(lock.mapping, lock.offset, version, token))
        if batch is not None:
            yield from batch.flush()
        for (lock, version, token), cas in zip(intents, futures):
            try:
                # a loss — the untouched even version included — sends
                # the caller back to re-snapshot
                got = (yield from cas_result(cas, token)) == version
            except Exception as exc:
                # unsettled (its server is gone): not ours to release
                failed, got = failed or exc, False
            if got:
                # the CAS observed version: join that version's publisher
                rsan.sync_acquire(actor, lock._sync_key(version))
            else:
                lock._m_lock_failures.inc()
            won.append(got)
    if failed is not None:
        raise failed
    return won


def try_lock_or_snapshot(lock, version: int, token: int):
    """CAS *lock*'s word from the even *version* to the unique odd
    *token* (:func:`mint_token`) behind a READ of the whole record, both
    on one doorbell and one round trip (generator) — the lock of a
    writer that already knows the record's version.  Answers ``(True,
    None)`` when the CAS won, else ``(False, snapshot)``: the READ as a
    validated ``(version, body)``, or ``None`` where it is not one.

    A lost CAS returns the word it found, and that word validates the
    READ the way :func:`snapshots`' second READ does: where
    ``IoBatch.in_order`` vouches that the READ executed first and the
    word equals the READ's even version, nothing was published between
    the two.  A fault on either request leaves the CAS ambiguous (a
    failed READ flushes the CAS behind it, which may already have
    landed): the token settles it with one read of the word
    (``cas_result``), so the caller always knows whether it holds the
    record.  Protocol traffic, hence RSan-exempt, with :func:`try_locks`'
    edge for a won CAS and :func:`snapshots`' edge for a validated READ.

    *version* 0 makes the pair a probe of a record that may never have
    been written (a ``put``'s walk): the CAS wins only there.  A lost
    one counts in ``coord.seqlock.lock_failures`` only where it met a
    writer's token (or an unsettled word); a published word is the
    probe's answer, not a lost race.
    """
    mapping = lock.mapping
    client = mapping.client
    rsan, actor = client.rsan, client._rsan_actor
    batch = client.batch()
    with rsan.exempt(actor):
        record = yield from batch.read(mapping, lock.offset, lock.record_size)
        cas = batch.cas(mapping, lock.offset, version, token)
        yield from batch.flush()
        try:
            blob = yield from record.wait()
        except RecoverableError:
            blob = None  # no snapshot; the token settles the CAS below
        found = yield from cas_result(cas, token)
        if found == version:
            rsan.sync_acquire(actor, lock._sync_key(version))
            return True, None
        if version or found is None or found % 2:
            # a CAS from 0 that met a published word was a probe, and
            # the word is its answer: only a writer's token is a race
            lock._m_lock_failures.inc()
        if found is None or blob is None or not batch.in_order(record, cas):
            return False, None
        seen, body = split(blob)
        if seen % 2 or seen != found:
            return False, None
        rsan.sync_acquire(actor, lock._sync_key(seen))
        return False, (seen, body)


def publishes(records, drive=None):
    """Write every ``(mapping, offset, held, word, body)`` record's body
    and then its word, all in one flush and one round trip (generator)
    — the only body-then-word write in the tree.

    Each record is an ordered pair on one batch, ``[WRITE body, WRITE
    word after=body]``: the remote NIC exposes the new word only over
    the new body.  A pair that could not be chained (record spanning
    servers, replicated region, two-sided ablation) or that a fault
    broke is redone a write at a time, body first — but only while the
    word still carries *held*, the holder's token: a word WRITE whose
    ack was lost has landed and freed the record.  ``drive(redo)`` runs
    such a redo (transactions pass their replay-until-it-lands loop).
    """
    client = records[0][0].client
    batch = client.batch()
    with client.rsan.exempt(client._rsan_actor):
        pairs = []
        for mapping, offset, _held, word, body in records:
            first = ((yield from batch.write(mapping, offset + _WORD, body))
                     if body else None)
            pairs.append((first, (yield from batch.write(
                mapping, offset, word.to_bytes(_WORD, "little"),
                after=first))))
        yield from batch.flush()
        try:
            yield from batch.wait_all()
        except RecoverableError:
            pass  # each pair answers for itself below
        for (*record, body), (first, last) in zip(records, pairs):
            landed = first is None or first.error is None  # the body, if any
            if landed and last.error is None:
                continue
            # registered on first use: the chained path pays no lookup
            client.obs.metrics.counter(
                "coord.seqlock.publishes_unchained", region=record[0].name,
                host=client.nic.host.host_id).inc()
            redo = partial(_republish, *record, b"" if landed else body)
            yield from (redo() if drive is None else drive(redo))


def _republish(mapping, offset: int, held: int, word: int, body: bytes):
    """Redo one broken publish a write at a time, if still ours (generator)."""
    if (yield from read_word(mapping, offset)) == held:
        if body:
            yield from mapping.write(offset + _WORD, body)
        yield from write_word(mapping, offset, word)


def replay_idempotent(op_factory, backoff):
    """Drive one idempotent post-decision write to completion
    (generator): publishes and lock releases are plain writes, so
    replaying them through faults is safe and *required* — the
    decision is already made.  The ``drive=`` of :func:`publishes` for
    both transaction runners."""
    for _attempt in range(_APPLY_ATTEMPTS):
        try:
            yield from op_factory()
            return
        except RecoverableError:
            yield from backoff.pause()
    raise CoordError(
        f"idempotent commit write did not land within "
        f"{_APPLY_ATTEMPTS} attempts"
    )


class SeqLock:
    """Optimistic-read / CAS-write concurrency over one record."""

    def __init__(self, mapping, offset: int, body_size: int,
                 counters: tuple = None):
        if body_size < 0:
            raise CoordError("body_size cannot be negative")
        self.mapping = mapping
        self.offset = offset
        self.body_size = body_size
        self._m_lock_failures = (counters or self.counters(mapping))[1]

    @staticmethod
    def counters(mapping) -> tuple:
        """The ``(read retries, lock failures)`` registry counters of
        the records of *mapping*, per region and host: a structure that
        makes a view per record resolves them once and passes them to
        each (a per-record label would grow the registry with the key
        space).  Its validated readers count their raced reads in the
        first."""
        _m = mapping.client.obs.metrics
        _labels = dict(region=mapping.name,
                       host=mapping.client.nic.host.host_id)
        return (_m.counter("coord.seqlock.read_retries", **_labels),
                _m.counter("coord.seqlock.lock_failures", **_labels))

    def _sync_key(self, version: int) -> tuple:
        return sync_key(self.mapping.name, self.offset, version)

    @property
    def record_size(self) -> int:
        return _WORD + self.body_size

    # -- readers (data path) ---------------------------------------------------

    def snapshot(self):
        """One raw ``(version, body)`` snapshot in a single one-sided
        READ (generator).  The version may be odd (a writer is
        mid-publish) and the snapshot is *unvalidated* — transactional
        readers re-check the version word at commit time instead of
        paying a validation read here; a validated read is
        :func:`snapshots`.  One READ of one record is internally
        consistent when the record does not straddle stripes (a table's
        slots never do): it lands as one DMA."""
        return split((yield from self.mapping.read(self.offset,
                                                   self.record_size)))

    # -- writers (data path) ---------------------------------------------------

    def try_lock(self, version: int, token: int):
        """CAS the even *version* to the unique odd *token*
        (:func:`mint_token`) (generator); returns success.  The word
        itself answers an ambiguous completion, so lock acquisition is
        exactly-once under injected completion faults."""
        if version % 2 == 1:
            raise CoordError(f"cannot lock from odd version {version}")
        if token % 2 == 0:
            raise CoordError(f"lock token {token} must be odd")
        (won,) = yield from try_locks([(self, version, token)])
        return won

    def publish(self, token: int, body: bytes, new_version: int):
        """Write *body* and bump the word from our *token* to
        *new_version*, the pre-lock version + 2 (generator)."""
        if token % 2 == 0:
            raise CoordError("publishing a record we never locked")
        if new_version % 2 == 1 or new_version <= 0:
            raise CoordError(
                f"published version {new_version} must be a positive "
                "even value"
            )
        if len(body) > self.body_size:
            raise CoordError(
                f"body of {len(body)} bytes exceeds record body "
                f"{self.body_size}"
            )
        client = self.mapping.client
        # release under the version we are about to publish, before the
        # writes leave: readers validating it join this clock
        client.rsan.sync_release(client._rsan_actor,
                                 self._sync_key(new_version))
        yield from publishes([(self.mapping, self.offset, token,
                               new_version, body)])

    def abort(self, original_version: int):
        """Drop the write lock without mutating (generator): restore
        the pre-lock even version, body untouched."""
        if original_version % 2 == 1:
            raise CoordError("abort restores the pre-lock even version")
        client = self.mapping.client
        with client.rsan.exempt(client._rsan_actor):
            yield from self.mapping.write(
                self.offset, original_version.to_bytes(8, "little")
            )
