"""The SeqLock record's bytes, the hash table's slot codec and probe
protocol.

**Record.**  A SeqLock record is ``[ version 8B ][ body ]``
(:func:`split`); the version word is ``0`` never written, even =
stable, odd = a writer in flight, and each published version has one
happens-before key (:func:`sync_key`).  Everything that reads a record
— :mod:`repro.coord.seqlock` (which owns the protocol *over* these
bytes: snapshots, intents, tokens, publishes), the table, the
transaction runtimes, the server-op executor — parses and names it
through these two functions and nowhere else.

Every prober of a ``hashkv`` table — the one-sided client
(:mod:`repro.kv.hashkv`), the transaction runtimes (:mod:`repro.txn`,
:mod:`repro.baselines.twopl`) and the server-op executor
(:mod:`repro.datapath.server_exec`) — must parse the same bytes and
agree on which slot ends a chain, which is skipped, which is a hit and
which may be claimed.  Both live here: pure functions over ``bytes``
plus one generator, no simulation or client dependencies.

Slot layout (all fields 8-byte aligned)::

    [ version 8B ][ key_len 8B ][ key ... ][ val_len 8B ][ value ... ]

A slot is one record whose body is ``[key_len][key][val_len][value]``;
``key_len`` of ``2**63 - 1`` marks a tombstone so linear probing keeps
finding later entries.

**Probe protocol.**  A key's chain is the :data:`PROBE_LIMIT` slots
from its hash onward (:func:`chain`).  :func:`classify` sorts a slot
into one of four classes and :func:`walk` visits slots in chain order
through a caller-supplied *reader*, so each prober keeps its own cost
model (validated SeqLock read, raw snapshot, local arena read) while
the policy is written once.  The store rule, :func:`target`, which
every writer follows (a delete takes only a hit): walk to a hit or to
the end of the chain; overwrite on a hit; otherwise claim the *first*
reusable slot the walk crossed — the earliest tombstone, else the
never-used slot that ended the chain.  A tombstone claimed before the
rest of the chain is searched would store a key living behind it
twice, so a writer may lock a slot *while* it walks (the one-sided
``put`` CASes each hop from 0) only up to the first tombstone.  The
rule leaves one live slot per key only among writers that do not race
across a delete: an insert claiming a deep tombstone a round trip
after its walk can meet one that walked after a delete opened an
earlier tombstone, and both publish
(``test_hashkv.py::test_racing_inserts_across_a_delete_leave_one_live_slot``
is an expected failure).  A prober that remembers where it last saw a
key reads that slot first (:func:`walk`'s *hint*): a hit there is the
walk's answer, and anything else walks.
"""

from __future__ import annotations

import hashlib

__all__ = [
    "WORD", "split", "sync_key",
    "TOMBSTONE", "PROBE_LIMIT", "hash64", "pad", "slot_size",
    "parse_key", "parse_body", "encode_body",
    "HIT", "FREE", "DEAD", "OTHER", "CONTINUE", "BUSY", "STORED", "REUSABLE",
    "chain", "classify", "walk", "target",
]

WORD = 8
TOMBSTONE = (1 << 63) - 1
#: linear-probe window before declaring the table full for a key
PROBE_LIMIT = 16

# slot classes (``classify``); the first two are also walk outcomes
HIT = "hit"            # holds the key
FREE = "free"          # never used: the chain ends here, claimable
DEAD = "dead"          # tombstone: claimable, the chain goes on
OTHER = "other"        # holds another key: the chain goes on
#: walk outcome: handles exhausted without a hit or a chain end.  The
#: three outcomes double as the ``dp_exec`` reply tags of a probe run.
CONTINUE = "continue"

# the other ``dp_exec`` reply tags of a probe run
BUSY = "busy"          # a writer holds a slot: the client re-drives
STORED = "stored"      # a store settled: the version and slot it took
REUSABLE = "reusable"  # a store's run crossed a tombstone, not the end


def split(blob: bytes):
    """``(version, body)`` of the record bytes *blob*."""
    return int.from_bytes(blob[:WORD], "little"), blob[WORD:]


def sync_key(region: str, offset: int, version: int) -> tuple:
    """The happens-before key of one published version of the record
    at *offset* of *region*: a validated reader of version *v* joins
    whatever the writer that published *v* released."""
    return ("seqlock", region, offset, version)


def hash64(key: bytes) -> int:
    """The table's slot hash: 8 bytes of blake2b, little-endian."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(),
                          "little")


def pad(n: int) -> int:
    """Round *n* up to the 8-byte slot alignment."""
    return -(-n // WORD) * WORD


def slot_size(key_size: int, value_size: int) -> int:
    """Bytes per slot: version + key_len + padded key + val_len +
    padded value."""
    return WORD + WORD + pad(key_size) + WORD + pad(value_size)


def parse_key(body: bytes):
    """``(key_len, key)`` from the front of a slot body; the key is
    empty for free and tombstoned slots."""
    key_len = int.from_bytes(body[0:WORD], "little")
    key = body[WORD:WORD + key_len] if key_len not in (0, TOMBSTONE) else b""
    return key_len, key


def parse_body(body: bytes, key_size: int):
    """Split a slot body (everything after the version word) into
    ``(key_len, key, value)``."""
    key_len, key = parse_key(body)
    val_off = WORD + pad(key_size)
    val_len = int.from_bytes(body[val_off:val_off + WORD], "little")
    value = body[val_off + WORD:val_off + WORD + val_len]
    return key_len, key, value


def encode_body(key: bytes, value: bytes, key_size: int, value_size: int,
                tombstone: bool = False) -> bytes:
    """One slot body: what a writer publishes after the version word."""
    key_len = TOMBSTONE if tombstone else len(key)
    body = key_len.to_bytes(WORD, "little")
    body += key.ljust(pad(key_size), b"\0")
    body += len(value).to_bytes(WORD, "little")
    body += value.ljust(pad(value_size), b"\0")
    return body


def chain(base: int, slots: int) -> list:
    """Slot indices of the probe chain for hash *base*, in probe order."""
    return [(base + probe) % slots for probe in range(PROBE_LIMIT)]


def classify(key_len: int, slot_key: bytes, key: bytes) -> str:
    """The class of a slot holding ``(key_len, slot_key)`` for a prober
    looking for *key*: :data:`FREE`, :data:`DEAD`, :data:`HIT` or
    :data:`OTHER`."""
    if key_len == 0:
        return FREE
    if key_len == TOMBSTONE:
        return DEAD
    return HIT if slot_key == key else OTHER


def walk(key: bytes, handles, reader, hint=None):
    """Probe *handles* in order for *key* (generator).

    *handles* are opaque slot names in chain order — a whole chain or
    one run of it; ``reader(handle)`` is a generator returning a tuple
    that starts ``(version, key_len, slot_key)``.  Whatever the reader
    raises (a busy slot, an exhausted retry budget) ends the walk.

    A *hint* — the handle where the prober last saw *key* — is read
    first, and a :data:`HIT` there is the walk's answer: with one live
    slot per key (see above), the hinted slot holding the key *is* the
    slot the walk would have settled on.  Any other
    class says nothing about the chain (the key moved, or was deleted),
    so the walk then starts from the first of *handles* as if unhinted.

    Returns ``(outcome, handle, snapshot, reusable)``: :data:`HIT` or
    :data:`FREE` with the slot that settled it and the reader's tuple
    for it, or :data:`CONTINUE` with two ``None``; *reusable* lists
    ``(handle, version)`` for every claimable slot crossed, in chain
    order — tombstones, then the never-used slot that ended the chain
    (never the hinted slot, which the store rule does not rank).
    """
    if hint is not None:
        snapshot = yield from reader(hint)
        if classify(snapshot[1], snapshot[2], key) == HIT:
            return HIT, hint, snapshot, []
    reusable = []
    for handle in handles:
        snapshot = yield from reader(handle)
        found = classify(snapshot[1], snapshot[2], key)
        if found == HIT:
            return HIT, handle, snapshot, reusable
        if found != OTHER:
            reusable.append((handle, snapshot[0]))
            if found == FREE:
                return FREE, handle, snapshot, reusable
    return CONTINUE, None, None, reusable


def target(walked, taken):
    """The store rule: the ``(handle, version)`` a store of the key
    :func:`walk` returned *walked* for takes — the hit, else the first
    reusable slot not in *taken* (a transaction's pending inserts) — or
    ``None``.  *version* is what the one-sided CAS or the commit intent
    must still find in the slot."""
    outcome, handle, snapshot, reusable = walked
    if outcome == HIT:
        return handle, snapshot[0]
    return next((slot for slot in reusable if slot[0] not in taken), None)
