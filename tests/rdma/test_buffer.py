"""Buffer: lazy 64 KiB blocks, and snapshots and immutable payloads that
share them copy-on-write."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rdma.memory import _ZERO_BLOCK, BLOCK, Buffer, HostMemory, Snapshot
from repro.rdma.types import RdmaError
from repro.simnet.config import GiB, MiB
from tests.probes import materialized_bytes, snapshot_bytes


def test_every_alloc_is_lazy():
    mem = HostMemory(host_id=0)
    for size in (100, 1 * MiB, 64 * MiB):
        buf = mem.alloc(size)
        assert type(buf) is Buffer
        assert len(buf) == size and materialized_bytes(buf) == 0


def test_untouched_reads_are_zero():
    buf = Buffer(0x1000, 16 * MiB, host_id=0)
    assert buf.read(12345, 100) == bytes(100)
    assert buf.read(BLOCK - 10, 3 * BLOCK) == bytes(3 * BLOCK)
    assert materialized_bytes(buf) == 0


def test_write_read_roundtrip_within_block():
    buf = Buffer(0, 1 * MiB, host_id=0)
    buf.write(1000, b"hello")
    assert buf.read(1000, 5) == b"hello"
    assert buf.read(990, 25) == bytes(10) + b"hello" + bytes(10)


def test_write_spanning_blocks():
    buf = Buffer(0, 1 * MiB, host_id=0)
    payload = bytes(range(256)) * 1024  # 256 KiB, crosses 4 blocks
    buf.write(BLOCK - 100, payload)
    assert buf.read(BLOCK - 100, len(payload)) == payload


def test_materialization_follows_the_written_extent():
    buf = Buffer(0, 1 * GiB, host_id=0)
    buf.write(0, b"x")
    assert materialized_bytes(buf) == 1
    buf.write(500 * MiB + 99, b"y")
    assert materialized_bytes(buf) == 1 + 100
    buf.write(BLOCK - 1, b"z" * 2)  # the end of block 0, the start of 1
    assert materialized_bytes(buf) == BLOCK + 1 + 100


def test_a_read_past_a_short_block_reads_zeros():
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    buf.write(10, b"abc")
    buf.write(BLOCK + 5, b"de")
    assert buf.read(12, 4) == b"c" + bytes(3)
    assert buf.read(100, 50) == bytes(50)
    assert buf.read(8, BLOCK - 8) == bytes(2) + b"abc" + bytes(BLOCK - 13)
    assert buf.read(8, BLOCK + 2) == (
        bytes(2) + b"abc" + bytes(BLOCK - 13) + bytes(5) + b"de" + bytes(3))
    assert buf.read(0, 2 * BLOCK) == (
        bytes(10) + b"abc" + bytes(BLOCK - 13) + bytes(5) + b"de"
        + bytes(BLOCK - 7))
    assert buf.snapshot(11, 10) == b"bc" + bytes(8)


def test_a_whole_block_snapshot_over_a_short_block_is_shared_and_lands():
    src = Buffer(0, 4 * BLOCK, host_id=0)
    src.write(BLOCK + 3, b"short")
    snap = src.snapshot(BLOCK, BLOCK)
    # padded to full length before it was shared, not copied into the part
    assert len(src._blocks[1]) == BLOCK and src._blocks[1].readonly
    assert snap.parts[0].obj is src._blocks[1].obj
    dst = Buffer(0, 4 * BLOCK, host_id=1)
    dst.write(2 * BLOCK, snap)
    assert dst._blocks[2].obj is src._blocks[1].obj
    want = bytes(3) + b"short" + bytes(BLOCK - 8)
    assert dst.read(2 * BLOCK, BLOCK) == want == snapshot_bytes(snap)
    src.write(BLOCK, b"x")  # copy-on-write: the landing keeps its bytes
    assert dst.read(2 * BLOCK, BLOCK) == want


def test_ascending_small_writes_regrow_a_block_logarithmically(monkeypatch):
    grows = []
    grow = Buffer._grow

    def counted(self, block_no, block, need):
        grows.append(need)
        return grow(self, block_no, block, need)

    monkeypatch.setattr(Buffer, "_grow", counted)
    buf = Buffer(0, 2 * BLOCK, host_id=0)
    for k in range(BLOCK // 128):  # 512 writes of 128 B fill block 0
        buf.write(k * 128, bytes([k % 256]) * 128)
    # 128 B, then doubled up to BLOCK: log2(BLOCK / 128) + 1 = 10
    assert len(grows) <= (BLOCK // 128).bit_length()
    assert materialized_bytes(buf) == BLOCK
    assert buf.read(0, BLOCK) == b"".join(
        bytes([k % 256]) * 128 for k in range(BLOCK // 128))


def test_multi_gib_buffer_costs_nothing_until_written():
    buf = Buffer(0, 64 * GiB, host_id=0)
    assert len(buf) == 64 * GiB
    assert materialized_bytes(buf) == 0


def test_bounds_enforced():
    buf = Buffer(0, 1000, host_id=0)
    with pytest.raises(RdmaError):
        buf.write(990, b"far too long")
    with pytest.raises(RdmaError):
        buf.read(500, 501)
    with pytest.raises(RdmaError):
        buf.snapshot(0, 1001)


@pytest.mark.parametrize("offset, length", [
    (-1, 4), (0, -1), (4, -1), (-BLOCK, 2 * BLOCK), (BLOCK, -BLOCK)])
def test_a_negative_offset_or_length_raises(offset, length):
    """A negative length is no empty range: ``read(0, -1)`` on a slice
    of a bytearray view returned all but the last byte."""
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    buf.write(0, b"z" * 64)
    for access in (buf.read, buf.snapshot):
        with pytest.raises(RdmaError):
            access(offset, length)
    if offset < 0:  # a payload's length is never negative
        with pytest.raises(RdmaError):
            buf.write(offset, b"x" * length)


def test_no_dense_data_accessor():
    buf = Buffer(0, 1000, host_id=0)
    assert not hasattr(buf, "data")


def test_a_whole_block_snapshot_shares_storage_until_written():
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    buf.write(BLOCK, b"a" * BLOCK)
    snap = buf.snapshot(BLOCK, BLOCK)
    assert isinstance(snap, Snapshot) and len(snap) == BLOCK
    # the snapshot holds the block itself, not a copy of it
    assert snap.parts[0].obj is buf._blocks[1].obj
    buf.write(BLOCK + 7, b"b")  # partial: copied first
    assert buf._blocks[1].obj is not snap.parts[0].obj
    assert snapshot_bytes(snap) == b"a" * BLOCK
    assert buf.read(BLOCK + 6, 3) == b"aba"


def test_a_snapshot_copies_its_edges_and_reads_unwritten_blocks_as_zero():
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    buf.write(0, b"e" * BLOCK)
    snap = buf.snapshot(BLOCK - 5, 2 * BLOCK)  # edge, unwritten, edge
    buf.write(BLOCK - 5, b"12345")
    buf.write(BLOCK, b"q" * (2 * BLOCK))
    assert snapshot_bytes(snap) == b"e" * 5 + bytes(2 * BLOCK - 5)


def test_a_short_range_snapshots_as_plain_bytes():
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    buf.write(BLOCK - 2, b"abcd")
    assert buf.snapshot(BLOCK - 2, 4) == b"abcd"


def test_landing_into_a_shared_block():
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    buf.write(0, bytes(range(256)) * (BLOCK // 128))  # blocks 0 and 1
    whole = buf.snapshot(0, 2 * BLOCK)
    # land it one block up: onto the shared block 1, whole-block writes
    buf.write(BLOCK, whole)
    assert buf.read(BLOCK, 2 * BLOCK) == snapshot_bytes(whole)
    # and shifted, so every piece is a partial write into shared blocks
    again = buf.snapshot(0, 2 * BLOCK)
    buf.write(100, again)
    assert buf.read(100, 2 * BLOCK) == snapshot_bytes(again)
    assert snapshot_bytes(whole) == bytes(range(256)) * (BLOCK // 128)


def test_an_empty_write_makes_no_block():
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    for offset in (0, 5, BLOCK, 4 * BLOCK):  # the last is the very end
        buf.write(offset, b"")
    assert materialized_bytes(buf) == 0
    # a never-written snapshot lands as never-written blocks
    buf.write(BLOCK, Buffer(0, 4 * BLOCK, host_id=1).snapshot(0, 2 * BLOCK))
    assert materialized_bytes(buf) == 0
    assert buf.read(0, 4 * BLOCK) == bytes(4 * BLOCK)


def test_a_landed_whole_block_is_adopted_until_either_side_writes():
    src = Buffer(0, 4 * BLOCK, host_id=0)
    dst = Buffer(0, 4 * BLOCK, host_id=1)
    src.write(BLOCK, b"a" * (2 * BLOCK))
    dst.write(0, src.snapshot(BLOCK, 2 * BLOCK))
    # both buffers hold the source's own blocks: nothing was copied
    assert dst._blocks[0].obj is src._blocks[1].obj
    assert dst._blocks[1].obj is src._blocks[2].obj
    src.write(BLOCK + 9, b"s")  # the source copies its block first
    assert src._blocks[1].obj is not dst._blocks[0].obj
    dst.write(BLOCK, b"d" * BLOCK)  # the landing replaces its block
    assert dst._blocks[1].obj is not src._blocks[2].obj
    assert dst.read(0, 2 * BLOCK) == b"a" * BLOCK + b"d" * BLOCK
    assert src.read(BLOCK, 2 * BLOCK) == (
        b"a" * 9 + b"s" + b"a" * (2 * BLOCK - 10))


def test_a_never_written_part_leaves_no_block():
    src = Buffer(0, 4 * BLOCK, host_id=0)
    dst = Buffer(0, 4 * BLOCK, host_id=1)
    src.write(0, b"x" * 10)  # an edge; blocks 1 and 2 stay unwritten
    dst.write(0, b"y" * (4 * BLOCK))
    dst.write(BLOCK - 10, src.snapshot(BLOCK - 10, 2 * BLOCK + 10))
    assert sorted(dst._blocks) == [0, 3]
    assert dst.read(BLOCK - 12, 2 * BLOCK + 14) == (
        b"yy" + bytes(2 * BLOCK + 10) + b"yy")


def test_a_bytes_write_adopts_its_whole_blocks_until_they_are_overwritten():
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    payload = b"head" + bytes(range(256)) * (3 * BLOCK // 256)
    pins = sys.getrefcount(payload)
    buf.write(BLOCK - 4, payload)  # an edge, then blocks 1, 2 and 3 whole
    adopted = [buf._blocks[n] for n in (1, 2, 3)]
    assert all(block.obj is payload and block.readonly for block in adopted)
    assert buf._blocks[0].obj is not payload  # the edge is a copy
    assert buf.read(BLOCK - 4, len(payload)) == payload
    snap = buf.snapshot(2 * BLOCK, BLOCK)  # a snapshot shares it as is
    assert snap.parts[0].obj is payload
    body = payload[4:]
    del adopted, snap
    buf.write(BLOCK + 5, b"x")  # partial: copied first
    buf.write(2 * BLOCK, b"y" * BLOCK)  # whole: replaced
    assert sys.getrefcount(payload) > pins  # block 3 still views it
    buf.write(3 * BLOCK, bytearray(b"z" * BLOCK))
    assert all(block.obj is not payload for block in buf._blocks.values())
    assert sys.getrefcount(payload) == pins  # no view of it is left
    assert buf.read(BLOCK, 3 * BLOCK) == (
        body[:5] + b"x" + body[6:BLOCK] + b"y" * BLOCK + b"z" * BLOCK)


def test_a_mutable_payload_or_part_of_a_larger_bytes_is_copied():
    mutable = bytearray(b"m" * BLOCK)
    larger = b"p" * (2 * BLOCK)  # adopting a part would pin all of it
    payloads = [mutable, memoryview(mutable),
                memoryview(mutable).toreadonly(), memoryview(larger)[:BLOCK]]
    buf = Buffer(0, 4 * BLOCK, host_id=0)
    for n, payload in enumerate(payloads):
        buf.write(n * BLOCK, payload)
        assert buf._blocks[n].obj is not mutable
        assert buf._blocks[n].obj is not larger
    mutable[:] = b"n" * BLOCK
    assert buf.read(0, 4 * BLOCK) == b"m" * (3 * BLOCK) + b"p" * BLOCK


_SIZE = 5 * BLOCK + 123
_EDGES = [k * BLOCK for k in range(6)]
_offsets = st.one_of(st.integers(0, _SIZE), st.sampled_from(_EDGES))
_lengths = st.one_of(st.integers(0, 3 * BLOCK),
                     st.sampled_from([BLOCK, 2 * BLOCK, 3 * BLOCK]))
#: just past a block's start: what leaves, grows and pads a short block
_near_starts = st.builds(lambda k, small: k * BLOCK + small,
                         st.integers(0, 5), st.integers(0, 600))
_ops = st.one_of(
    st.tuples(st.just("write"), st.integers(0, 1), _offsets,
              st.binary(max_size=300)),
    st.tuples(st.just("write"), st.integers(0, 1), _near_starts,
              st.binary(min_size=1, max_size=80)),
    st.tuples(st.just("fill"), st.integers(0, 1), _offsets, _lengths,
              st.integers(0, 255)),
    st.tuples(st.just("snapshot"), st.integers(0, 1), _offsets, _lengths),
    st.tuples(st.just("land"), st.integers(0, 1), _offsets,
              st.integers(0, 1000)),
    # land at the snapshot's own alignment, this many blocks away
    st.tuples(st.just("land aligned"), st.integers(0, 1),
              st.integers(-4, 4), st.integers(0, 1000)),
    # whole blocks of bytes from this block on: adopted, not copied
    st.tuples(st.just("whole bytes"), st.integers(0, 1), st.integers(0, 4),
              st.integers(1, 3), st.integers(0, 255)),
    # a mutable payload the caller changes right after the write
    st.tuples(st.sampled_from(["bytearray", "read-only view"]),
              st.integers(0, 1), _offsets, _lengths, st.integers(0, 255)),
)
_PATTERN = bytes(range(256))
_FLIP = bytes(255 - b for b in range(256))


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_ops, max_size=25))
def test_snapshots_hold_their_instant_against_a_bytearray_reference(ops):
    """Property: two buffers behave exactly like two bytearrays, and
    every snapshot keeps the bytes of the instant it was taken, whatever
    is written or landed afterwards — on either buffer, over blocks a
    landing or a ``bytes`` write adopted — and a write holds what it
    was given, whatever the caller does to a mutable payload after."""
    bufs = [Buffer(0, _SIZE, host_id=0), Buffer(0, _SIZE, host_id=1)]
    refs = [bytearray(_SIZE), bytearray(_SIZE)]
    taken = []  # (snapshot, the reference bytes at its instant, offset)
    for op, which, offset, *rest in ops:
        buf, ref = bufs[which], refs[which]
        if op == "write" or op == "fill":
            payload = (rest[0] if op == "write"
                       else bytes([rest[1]]) * rest[0])
            if offset + len(payload) > _SIZE:
                continue
            buf.write(offset, payload)
            ref[offset:offset + len(payload)] = payload
        elif op == "whole bytes":
            first, (count, turn) = offset, rest
            if first + count > _SIZE // BLOCK:
                continue
            payload = (_PATTERN[turn:] + _PATTERN[:turn]) * (
                count * BLOCK // len(_PATTERN))
            buf.write(first * BLOCK, payload)
            ref[first * BLOCK:(first + count) * BLOCK] = payload
            for n in range(first, first + count):
                assert buf._blocks[n].obj is payload
        elif op in ("bytearray", "read-only view"):
            length, fill = rest
            if offset + length > _SIZE:
                continue
            payload = bytearray([fill]) * length
            buf.write(offset, payload if op == "bytearray"
                      else memoryview(payload).toreadonly())
            ref[offset:offset + length] = payload
            payload[:] = payload.translate(_FLIP)  # what was written holds
        elif op == "snapshot":
            length = rest[0]
            if offset + length > _SIZE:
                continue
            snap = buf.snapshot(offset, length)
            assert len(snap) == length
            taken.append((snap, bytes(ref[offset:offset + length]), offset))
            if isinstance(snap, Snapshot):
                pos = offset
                for part in snap.parts:
                    block = buf._blocks.get(pos // BLOCK)
                    if len(part) == BLOCK and block is not None:
                        assert part.obj is block.obj  # shared, not copied
                    pos += len(part)
        elif taken:  # land
            snap, want, source = taken[rest[0] % len(taken)]
            if op == "land aligned":
                offset = source + offset * BLOCK
            if not 0 <= offset <= _SIZE - len(want):
                continue
            buf.write(offset, snap)
            ref[offset:offset + len(want)] = want
            if isinstance(snap, Snapshot) and offset % BLOCK == source % BLOCK:
                pos = offset
                for part in snap.parts:
                    if len(part) == BLOCK:  # adopted, or no block at all
                        block = buf._blocks.get(pos // BLOCK)
                        never_written = part is _ZERO_BLOCK
                        assert (block is None if never_written
                                else block.obj is part.obj)
                    pos += len(part)
    for snap, want, _source in taken:
        assert snapshot_bytes(snap) == want
    for buf, ref in zip(bufs, refs):
        assert buf.read(0, _SIZE) == bytes(ref)
