"""Host memory and registered memory regions.

Data is real: buffers are ``bytearray`` objects, one-sided operations
move actual bytes between them, and applications above RStore compute
bit-exact results through the simulated fabric.

Each host owns a :class:`HostMemory` with a page-aligned bump allocator
handing out *addresses* in a host-private virtual address space; a
:class:`MemoryRegion` pins a buffer and grants it local/remote keys, the
unit of the verbs permission model.
"""

from __future__ import annotations

from typing import Optional

from repro.rdma.device import PAGE_SIZE
from repro.rdma.types import Access, RdmaError

__all__ = ["Buffer", "SparseBuffer", "HostMemory", "MemoryRegion"]


class Buffer:
    """A contiguous allocation in a host's virtual address space."""

    __slots__ = ("addr", "data", "host_id", "_view")

    def __init__(self, addr: int, length: int, host_id: int):
        self.addr = addr
        self.data = bytearray(length)
        self.host_id = host_id
        #: reads slice this, not ``data``: a bytearray slice is itself a
        #: copy, so ``bytes(data[a:b])`` would move every byte twice
        self._view = memoryview(self.data)

    def __len__(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.addr + len(self)

    def write(self, offset: int, payload: bytes) -> None:
        if offset < 0 or offset + len(payload) > len(self.data):
            raise RdmaError(
                f"write of {len(payload)} bytes at offset {offset} exceeds "
                f"buffer of {len(self.data)} bytes"
            )
        self.data[offset : offset + len(payload)] = payload

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or offset + length > len(self.data):
            raise RdmaError(
                f"read of {length} bytes at offset {offset} exceeds buffer "
                f"of {len(self.data)} bytes"
            )
        return self._view[offset : offset + length].tobytes()


class SparseBuffer(Buffer):
    """A large allocation whose blocks materialize on first write.

    Memory servers donate arenas of many GiB; CPython cannot afford to
    back those with real ``bytearray`` storage up front.  A sparse
    buffer stores only written blocks (64 KiB each); reads of untouched
    ranges return zeros, matching freshly allocated DRAM.
    """

    BLOCK = 64 * 1024

    __slots__ = ("_length", "_blocks")

    def __init__(self, addr: int, length: int, host_id: int):
        # Deliberately skip Buffer.__init__: no dense backing store.
        self.addr = addr
        self.host_id = host_id
        self._length = length
        #: block number -> view of that block's bytearray (a view, for
        #: the same single-copy reads as the dense buffer)
        self._blocks: dict[int, memoryview] = {}

    def __len__(self) -> int:
        return self._length

    @property
    def data(self):  # pragma: no cover - dense-only API
        raise RdmaError("sparse buffers expose read()/write(), not .data")

    @property
    def materialized_bytes(self) -> int:
        return len(self._blocks) * self.BLOCK

    def write(self, offset: int, payload: bytes) -> None:
        if offset < 0 or offset + len(payload) > self._length:
            raise RdmaError(
                f"write of {len(payload)} bytes at offset {offset} exceeds "
                f"buffer of {self._length} bytes"
            )
        pos = 0
        while pos < len(payload):
            block_no, block_off = divmod(offset + pos, self.BLOCK)
            take = min(self.BLOCK - block_off, len(payload) - pos)
            block = self._blocks.get(block_no)
            if block is None:
                block = memoryview(bytearray(self.BLOCK))
                self._blocks[block_no] = block
            block[block_off : block_off + take] = payload[pos : pos + take]
            pos += take

    def read(self, offset: int, length: int) -> bytes:
        if offset < 0 or length < 0 or offset + length > self._length:
            raise RdmaError(
                f"read of {length} bytes at offset {offset} exceeds buffer "
                f"of {self._length} bytes"
            )
        # each part is a view; the one copy happens in tobytes()/join()
        parts = []
        pos = 0
        while pos < length:
            block_no, block_off = divmod(offset + pos, self.BLOCK)
            take = min(self.BLOCK - block_off, length - pos)
            block = self._blocks.get(block_no, _ZERO_BLOCK)
            part = block[block_off : block_off + take]
            if take == length:
                return part.tobytes()  # within one block: nothing to join
            parts.append(part)
            pos += take
        return b"".join(parts)


#: what every never-written block of a sparse buffer reads as
_ZERO_BLOCK = memoryview(bytes(SparseBuffer.BLOCK))


class HostMemory:
    """Page-aligned bump allocator for one host's DRAM."""

    #: allocations at or above this size get sparse backing
    SPARSE_THRESHOLD = 8 * 1024 * 1024

    def __init__(self, host_id: int, base_addr: int = 0x10000):
        self.host_id = host_id
        self._next_addr = base_addr
        self.allocated_bytes = 0

    def alloc(self, length: int) -> Buffer:
        if length <= 0:
            raise ValueError(f"allocation size must be positive, got {length}")
        addr = self._next_addr
        pages = -(-length // PAGE_SIZE)
        self._next_addr += pages * PAGE_SIZE
        self.allocated_bytes += length
        if length >= self.SPARSE_THRESHOLD:
            return SparseBuffer(addr, length, self.host_id)
        return Buffer(addr, length, self.host_id)


class MemoryRegion:
    """A registered (pinned) buffer with access keys.

    ``lkey`` authorises local use in work requests; ``rkey`` authorises
    remote one-sided access, subject to the region's access flags.
    Registration hands the keys out (``RNic.reg_mr``, from the
    simulation's one key sequence); a region built bare has none.
    """

    __slots__ = ("buffer", "access", "lkey", "rkey", "pd", "valid")

    def __init__(self, buffer: Buffer, access: Access, pd=None):
        self.buffer = buffer
        self.access = access
        self.lkey = self.rkey = 0
        self.pd = pd
        self.valid = True

    @property
    def addr(self) -> int:
        return self.buffer.addr

    @property
    def length(self) -> int:
        return len(self.buffer)

    @property
    def pages(self) -> int:
        return -(-self.length // PAGE_SIZE)

    def check_remote(self, addr: int, length: int, need: Access) -> Optional[str]:
        """Validate a remote access; return an error string or ``None``."""
        if not self.valid:
            return "memory region has been deregistered"
        if not (self.access & need):
            return f"region lacks {need} permission"
        if addr < self.addr or addr + length > self.addr + self.length:
            return (
                f"access [{addr:#x}, +{length}) outside region "
                f"[{self.addr:#x}, +{self.length})"
            )
        return None

    def offset_of(self, addr: int) -> int:
        return addr - self.addr

    def deregister(self) -> None:
        self.valid = False
