"""Host memory and registered memory regions.

Data is real: buffers hold 64 KiB blocks of bytes, one-sided operations
move actual bytes between them, and applications above RStore compute
bit-exact results through the simulated fabric.  One sharing rule keeps
the host from copying what the simulated system never copies: a block
whose bytes cannot change is shared read-only, not copied — a whole
block a :class:`Snapshot` takes (its buffer copies it before writing
to it again), and a whole, aligned block of an immutable ``bytes``
payload that :meth:`Buffer.write` stores.

Each host owns a :class:`HostMemory` with a page-aligned bump allocator
handing out *addresses* in a host-private virtual address space; a
:class:`MemoryRegion` pins a buffer and grants it local/remote keys, the
unit of the verbs permission model.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.rdma.device import PAGE_SIZE
from repro.rdma.types import Access, RdmaError

__all__ = [
    "BLOCK", "Buffer", "HostMemory", "MemoryRegion", "Payload", "Snapshot",
]

#: a buffer's unit of storage, of lazy zero-fill and of sharing: 64 KiB
_BLOCK_BITS = 16
BLOCK = 1 << _BLOCK_BITS
_IN_BLOCK = BLOCK - 1

#: what every never-written block reads as
_ZERO_BLOCK = memoryview(bytes(BLOCK))


def _pieces(offset: int, length: int):
    """``(block number, offset in block, bytes)`` for each block that
    ``[offset, +length)`` touches, in address order."""
    block_no, block_off = offset >> _BLOCK_BITS, offset & _IN_BLOCK
    while length > 0:
        take = BLOCK - block_off
        if take > length:
            take = length
        yield block_no, block_off, take
        length -= take
        block_no += 1
        block_off = 0


class Snapshot:
    """A buffer range as it was at one instant, for a transfer to land.

    ``parts`` are views in address order: a whole block is the source's
    own storage, shared copy-on-write (the zero block itself if it was
    never written); an edge of a block is a copy.
    ``len()`` is the byte length and :meth:`Buffer.write` lands it.
    """

    __slots__ = ("parts", "_length")

    def __init__(self, parts: list, length: int):
        self.parts = parts
        self._length = length

    def __len__(self) -> int:
        return self._length


#: what a transfer carries from its snapshot instant to its landing
Payload = Union[bytes, Snapshot]


def _padded(block: memoryview, offset: int, length: int) -> bytes:
    """``[offset, +length)`` of *block* as bytes, zeros past its end."""
    return block[offset : offset + length].tobytes().ljust(length, b"\0")


class Buffer:
    """A contiguous allocation in a host's virtual address space.

    Storage is :data:`BLOCK`-sized blocks made on first write; a block
    never written reads as zeros, like fresh DRAM, so a multi-GiB arena
    costs nothing until it is used.  A block stores its bytes up to the
    highest one written so far and reads as zeros past that, so a 300 B
    message in a 64 KiB ring slot holds 300 B.

    A block whose bytes cannot change is shared read-only, always full
    length: one a :class:`Snapshot` shares or landed, and one adopted
    from an immutable payload.  The next write to it replaces it (a
    whole-block write) or copies it first (a partial one).  An adopted
    block keeps its payload's ``bytes`` object alive only until that
    block is overwritten, and a payload never pins more than its own
    length: a view of part of a larger ``bytes`` object is copied.
    """

    __slots__ = ("addr", "host_id", "_length", "_blocks")

    def __init__(self, addr: int, length: int, host_id: int):
        self.addr = addr
        self.host_id = host_id
        self._length = length
        #: block number -> view of that block's storage, at most BLOCK
        #: long: its own bytearray, or read-only and BLOCK long while it
        #: is shared with a snapshot, another buffer or a ``bytes``
        #: payload
        self._blocks: dict[int, memoryview] = {}

    def __len__(self) -> int:
        return self._length

    def _check(self, what: str, offset: int, length: int) -> None:
        """The one bounds check: ``[offset, +length)`` lies inside."""
        if offset < 0 or length < 0 or offset + length > self._length:
            raise RdmaError(
                f"{what} of {length} bytes at offset {offset} exceeds "
                f"buffer of {self._length} bytes"
            )

    def read(self, offset: int, length: int) -> bytes:
        """The bytes of ``[offset, +length)``, copied once."""
        self._check("read", offset, length)
        block_off = offset & _IN_BLOCK
        if block_off + length <= BLOCK:  # within one block: one slice
            return _padded(self._blocks.get(offset >> _BLOCK_BITS,
                                            _ZERO_BLOCK), block_off, length)
        blocks = self._blocks
        parts = []
        for n, o, t in _pieces(offset, length):
            piece = blocks.get(n, _ZERO_BLOCK)[o : o + t]
            parts.append(piece)
            if len(piece) < t:  # past a short block's end
                parts.append(_ZERO_BLOCK[: t - len(piece)])
        return b"".join(parts)

    def snapshot(self, offset: int, length: int) -> Payload:
        """``[offset, +length)`` as of now, whatever is written later.

        Whole blocks are shared, not copied; a range holding none is
        plain ``bytes``.  Either way ``write`` lands it.
        """
        if length < BLOCK:  # no whole block to share: one copy
            return self.read(offset, length)
        self._check("snapshot", offset, length)
        blocks = self._blocks
        parts = []
        for n, o, t in _pieces(offset, length):
            block = blocks.get(n)
            if block is None:
                parts.append(_ZERO_BLOCK if t == BLOCK
                             else _ZERO_BLOCK[o : o + t])
            elif t < BLOCK:
                parts.append(_padded(block, o, t))
            else:
                if not block.readonly:  # shared blocks are full length
                    if len(block) < BLOCK:
                        block = self._grow(n, block, BLOCK)
                    block = blocks[n] = block.toreadonly()
                parts.append(block)
        return Snapshot(parts, length)

    def write(self, offset: int, payload: Payload) -> None:
        """Store *payload* — bytes-like, or a snapshot to land — at
        *offset*.

        A whole block of an immutable payload, or of a snapshot, that
        lands on a whole block is adopted, not copied: it stays
        read-only until this buffer (or, for a snapshot, its source)
        writes to it, and a never-written one leaves no block at all.
        A mutable payload (``bytearray``, a view of one, an array) and
        every block edge are copied.
        """
        length = len(payload)
        self._check("write", offset, length)
        block_off = offset & _IN_BLOCK
        end = block_off + length
        if end < BLOCK:  # within one block, not all of it
            if not length:
                return
            block_no = offset >> _BLOCK_BITS
            block = self._blocks.get(block_no)
            if block is None or len(block) < end or block.readonly:
                block = self._grow(block_no, block, end)
            block[block_off:end] = payload
            return
        # a snapshot is never shorter than a block, so only here
        if type(payload) is not Snapshot:
            self._copy(offset, payload)
            return
        blocks = self._blocks
        for part in payload.parts:
            take = len(part)
            if take == BLOCK and not offset & _IN_BLOCK:
                if part is _ZERO_BLOCK:
                    blocks.pop(offset >> _BLOCK_BITS, None)
                else:
                    blocks[offset >> _BLOCK_BITS] = part
            else:
                self._copy(offset, part)
            offset += take

    def _copy(self, offset: int, data) -> None:
        """Store the bytes-like *data* at *offset*, block by block: a
        whole block of all of one ``bytes`` object is adopted, the rest
        copied."""
        blocks = self._blocks
        view = memoryview(data)
        frozen = (type(view.obj) is bytes and view.c_contiguous
                  and view.nbytes == len(view.obj))
        start = 0
        for n, o, t in _pieces(offset, len(view)):
            piece = view[start : start + t]
            start += t
            if t == BLOCK and frozen:  # cannot change: shared, not copied
                blocks[n] = piece
                continue
            block = blocks.get(n)
            if block is None or len(block) < o + t or block.readonly:
                if t == BLOCK:  # the copy is the new block
                    blocks[n] = memoryview(bytearray(piece))
                    continue
                block = self._grow(n, block, o + t)
            block[o : o + t] = piece

    def _grow(self, block_no: int, block: Optional[memoryview],
              need: int) -> memoryview:
        """A writable block *block_no* at least *need* bytes long.

        A never-written block gets just *need* bytes.  A short one is
        copied into at least twice its length (up to :data:`BLOCK`), so
        ascending writes regrow it ~log2 times, not once per write.  A
        shared block is full length, and so is its copy.
        """
        size = 0 if block is None else len(block)
        own = bytearray(max(need, min(2 * size, BLOCK)))
        if size:
            own[:size] = block
        self._blocks[block_no] = view = memoryview(own)
        return view


class HostMemory:
    """Page-aligned bump allocator for one host's DRAM."""

    def __init__(self, host_id: int):
        self.host_id = host_id
        self._next_addr = 0x10000
        self.allocated_bytes = 0

    def alloc(self, length: int) -> Buffer:
        if length <= 0:
            raise ValueError(f"allocation size must be positive, got {length}")
        addr = self._next_addr
        pages = -(-length // PAGE_SIZE)
        self._next_addr += pages * PAGE_SIZE
        self.allocated_bytes += length
        return Buffer(addr, length, self.host_id)


class MemoryRegion:
    """A registered (pinned) buffer with access keys.

    ``lkey`` authorises local use in work requests; ``rkey`` authorises
    remote one-sided access, subject to the region's access flags.
    Registration hands the keys out (``RNic.reg_mr``, from the
    simulation's one key sequence); a region built bare has none.
    """

    __slots__ = ("buffer", "access", "addr", "length", "_access_bits",
                 "lkey", "rkey", "pd")

    def __init__(self, buffer: Buffer, access: Access, pd=None):
        self.buffer = buffer
        self.access = access
        # resolved once: every work request checks them
        self.addr = buffer.addr
        self.length = len(buffer)
        self._access_bits = access.value
        self.lkey = self.rkey = 0
        self.pd = pd

    @property
    def pages(self) -> int:
        return -(-self.length // PAGE_SIZE)

    def check_remote(self, addr: int, length: int, need: Access) -> Optional[str]:
        """Validate a remote access; return an error string or ``None``."""
        if not self._access_bits & need._value_:
            return f"region lacks {need} permission"
        if addr < self.addr or addr + length > self.addr + self.length:
            return (
                f"access [{addr:#x}, +{length}) outside region "
                f"[{self.addr:#x}, +{self.length})"
            )
        return None

    def offset_of(self, addr: int) -> int:
        return addr - self.addr
