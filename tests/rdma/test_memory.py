"""Unit tests for buffers, host memory and memory regions."""

import pytest

from repro.rdma.device import PAGE_SIZE
from repro.rdma.memory import Buffer, HostMemory, MemoryRegion
from repro.rdma.types import Access, RdmaError

from tests.rdma.helpers import make_world, run


def test_alloc_is_page_aligned_and_disjoint():
    mem = HostMemory(host_id=0)
    a = mem.alloc(100)
    b = mem.alloc(100)
    assert a.addr % PAGE_SIZE == 0
    assert b.addr % PAGE_SIZE == 0
    assert b.addr >= a.addr + PAGE_SIZE


def test_alloc_rejects_non_positive():
    mem = HostMemory(host_id=0)
    with pytest.raises(ValueError):
        mem.alloc(0)


def test_buffer_read_write_roundtrip():
    buf = Buffer(addr=0x1000, length=64, host_id=0)
    buf.write(10, b"abcdef")
    assert buf.read(10, 6) == b"abcdef"
    assert buf.read(0, 10) == bytes(10)


def test_buffer_bounds_checked():
    buf = Buffer(addr=0x1000, length=16, host_id=0)
    with pytest.raises(RdmaError):
        buf.write(10, b"toolongpayload")
    with pytest.raises(RdmaError):
        buf.read(12, 8)
    with pytest.raises(RdmaError):
        buf.read(-1, 4)


def test_mr_keys_are_unique():
    """Registration hands the keys out, from one sequence per
    simulation: unique across its NICs, and the same in the next one."""
    def register(world):
        mrs = []
        for nic in world.nics:
            pd = yield from nic.alloc_pd()
            mrs.append((yield from nic.reg_mr(pd, length=64)))
        return [key for mr in mrs for key in (mr.lkey, mr.rkey)]

    first, second = make_world(), make_world()
    keys = run(first, register(first))
    assert len(set(keys)) == 4 and 0 not in keys
    assert run(second, register(second)) == keys


def test_mr_check_remote_permissions():
    buf = Buffer(0x1000, 4096, 0)
    mr = MemoryRegion(buf, Access.REMOTE_READ)
    assert mr.check_remote(0x1000, 100, Access.REMOTE_READ) is None
    assert "permission" in mr.check_remote(0x1000, 100, Access.REMOTE_WRITE)


def test_mr_check_remote_bounds():
    buf = Buffer(0x1000, 4096, 0)
    mr = MemoryRegion(buf, Access.all_remote())
    assert "outside region" in mr.check_remote(0x0800, 100, Access.REMOTE_READ)
    assert "outside region" in mr.check_remote(0x1F00, 4096, Access.REMOTE_READ)


def test_mr_page_count():
    buf = Buffer(0x1000, PAGE_SIZE * 3 + 1, 0)
    mr = MemoryRegion(buf, Access.LOCAL_WRITE)
    assert mr.pages == 4


def test_allocated_bytes_accounting():
    mem = HostMemory(host_id=2)
    mem.alloc(100)
    mem.alloc(200)
    assert mem.allocated_bytes == 300
