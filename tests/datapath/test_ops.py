"""Slot codec unit tests: both ends of the kv data path must agree."""

import pytest

from repro.datapath import ops


def test_pad_rounds_up_to_word():
    assert ops.pad(0) == 0
    assert ops.pad(1) == 8
    assert ops.pad(8) == 8
    assert ops.pad(9) == 16
    assert ops.pad(104) == 104


def test_slot_size_layout_arithmetic():
    # version + key_len + padded key + val_len + padded value
    assert ops.slot_size(16, 64) == 8 + 8 + 16 + 8 + 64
    assert ops.slot_size(10, 30) == 8 + 8 + 16 + 8 + 32
    assert ops.slot_size(1, 1) == 8 + 8 + 8 + 8 + 8


@pytest.mark.parametrize("key,value", [
    (b"k", b"v"),
    (b"a-16-byte-key!!!", b""),
    (b"k2", b"x" * 64),
    (b"\x00odd\xff", b"\x00" * 7),
])
def test_encode_parse_round_trip(key, value):
    body = ops.encode_body(key, value, key_size=16, value_size=64)
    assert len(body) == ops.slot_size(16, 64) - ops.WORD
    key_len, got_key, got_value = ops.parse_body(body, key_size=16)
    assert key_len == len(key)
    assert got_key == key
    assert got_value == value


def test_tombstone_encodes_the_sentinel_and_parses_empty():
    body = ops.encode_body(b"dead", b"", key_size=16, value_size=64,
                           tombstone=True)
    key_len, key, value = ops.parse_body(body, key_size=16)
    assert key_len == ops.TOMBSTONE
    assert key == b""
    assert value == b""


def test_free_slot_parses_as_zero_length():
    blank = bytes(ops.slot_size(16, 64) - ops.WORD)
    key_len, key, value = ops.parse_body(blank, key_size=16)
    assert key_len == 0
    assert key == b""
    assert value == b""


def test_hash64_is_deterministic_64_bit_and_spreads():
    a = ops.hash64(b"alpha")
    assert a == ops.hash64(b"alpha")
    assert 0 <= a < (1 << 64)
    draws = {ops.hash64(b"key-%d" % i) for i in range(1000)}
    assert len(draws) == 1000  # no collisions over a small set


def test_chain_is_the_probe_window_from_the_hash_wrapping_at_the_end():
    assert ops.chain(5, 1000) == list(range(5, 5 + ops.PROBE_LIMIT))
    assert ops.chain(1 << 40, 7) == [((1 << 40) + p) % 7
                                    for p in range(ops.PROBE_LIMIT)]


def test_classify_names_the_four_slot_classes():
    assert ops.classify(0, b"", b"k") == ops.FREE
    assert ops.classify(ops.TOMBSTONE, b"", b"k") == ops.DEAD
    assert ops.classify(1, b"k", b"k") == ops.HIT
    assert ops.classify(1, b"j", b"k") == ops.OTHER


class _Busy(Exception):
    pass


def _walk(slots, key=b"k", handles=None):
    """Drive ``ops.walk`` over an in-memory slot list; a slot is
    ``(version, key_len, key, value)`` or ``None`` for write-locked."""
    read = []

    def reader(handle):
        read.append(handle)
        if slots[handle] is None:
            raise _Busy()
        return slots[handle]
        yield  # pragma: no cover -- makes this a generator

    walker = ops.walk(key, range(len(slots)) if handles is None else handles,
                      reader)
    try:
        next(walker)
    except StopIteration as done:
        return done.value, read
    raise AssertionError("an in-memory reader never yields")


_FREE = (0, 0, b"", b"")
_DEAD = (4, ops.TOMBSTONE, b"", b"")
_MINE = (2, 1, b"k", b"v")
_THEIRS = (6, 1, b"j", b"w")


@pytest.mark.parametrize("slots,outcome,handle,reusable,reads", [
    # hit on the home slot: nothing else is read
    ([_MINE, _FREE], ops.HIT, 0, [], 1),
    # other keys are stepped over
    ([_THEIRS, _THEIRS, _MINE], ops.HIT, 2, [], 3),
    # a never-used slot ends the chain and is itself claimable
    ([_THEIRS, _FREE, _MINE], ops.FREE, 1, [(1, 0)], 2),
    # a tombstone does not end the chain: the key behind it is found,
    # and the tombstone is reported, not claimed
    ([_DEAD, _MINE], ops.HIT, 1, [(0, 4)], 2),
    # reusable slots come back in chain order, tombstones first
    ([_DEAD, _THEIRS, _DEAD, _FREE], ops.FREE, 3,
     [(0, 4), (2, 4), (3, 0)], 4),
    # handles exhausted: the run (or window) is over, the chain is not
    ([_THEIRS, _DEAD, _THEIRS], ops.CONTINUE, None, [(1, 4)], 3),
    ([], ops.CONTINUE, None, [], 0),
])
def test_walk_outcomes(slots, outcome, handle, reusable, reads):
    (got, got_handle, snapshot, got_reusable), read = _walk(slots)
    assert (got, got_handle, got_reusable) == (outcome, handle, reusable)
    assert snapshot == (slots[handle] if handle is not None else None)
    assert read == list(range(reads))


@pytest.mark.parametrize("slots,taken,target", [
    # a hit is the key's own slot, at the version read there
    ([_DEAD, _MINE], (), (1, 2)),
    # a hit is taken even when a transaction holds it for an insert
    ([_MINE], {0}, (0, 2)),
    # otherwise the first reusable slot: the earliest tombstone ...
    ([_THEIRS, _DEAD, _DEAD, _FREE], (), (1, 4)),
    # ... past the ones this writer's pending inserts hold
    ([_THEIRS, _DEAD, _DEAD, _FREE], {1}, (2, 4)),
    ([_THEIRS, _DEAD, _DEAD, _FREE], {1, 2}, (3, 0)),
    # nothing left to take
    ([_THEIRS, _DEAD, _FREE], {1, 2}, None),
    ([_THEIRS, _THEIRS], (), None),
])
def test_target_takes_a_hit_else_the_first_reusable_slot_not_taken(
        slots, taken, target):
    walked, _read = _walk(slots)
    assert ops.target(walked, taken) == target


def test_walk_follows_the_handles_it_is_given_not_slot_order():
    slots = [_MINE, _THEIRS, _FREE]
    (outcome, handle, _snap, _reusable), read = _walk(slots,
                                                      handles=[1, 2, 0])
    assert (outcome, handle, read) == (ops.FREE, 2, [1, 2])


def test_walk_lets_the_readers_refusal_through():
    with pytest.raises(_Busy):
        _walk([_THEIRS, None, _MINE])
