"""Client staging-pool behaviour."""

import pytest

from repro.core.errors import OutOfMemoryError
from repro.core.pool import LocalBufferPool
from repro.rdma.memory import Buffer, MemoryRegion
from repro.rdma.types import Access
from repro.simnet.kernel import Simulator


def make_pool(size=4096):
    sim = Simulator()
    mr = MemoryRegion(Buffer(0x1000, size, host_id=0), Access.LOCAL_WRITE)
    return sim, LocalBufferPool(sim, mr)


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_alloc_free_roundtrip():
    sim, pool = make_pool()

    def app():
        chunk = yield from pool.alloc(1000)
        chunk.write_bytes(b"staged")
        assert chunk.read_bytes(6) == b"staged"
        assert chunk.read_bytes(0) == b""  # not the whole chunk
        chunk.release()
        assert pool.free_bytes == pool.capacity

    run(sim, app())


def test_oversized_request_rejected_with_guidance():
    sim, pool = make_pool(size=4096)

    def app():
        with pytest.raises(OutOfMemoryError, match="zero-copy"):
            yield from pool.alloc(8192)

    run(sim, app())


def test_alloc_blocks_until_release():
    sim, pool = make_pool(size=4096)
    order = []

    def holder():
        chunk = yield from pool.alloc(4096)
        order.append(("acquired-big", sim.now))
        yield sim.timeout(1.0)
        chunk.release()

    def waiter():
        yield sim.timeout(0.1)  # let the holder go first
        chunk = yield from pool.alloc(1000)
        order.append(("acquired-small", sim.now))
        chunk.release()

    sim.process(holder())
    sim.process(waiter())
    sim.run()
    assert order == [("acquired-big", 0.0), ("acquired-small", 1.0)]


def test_concurrent_chunks_are_disjoint():
    sim, pool = make_pool(size=4096)

    def app():
        a = yield from pool.alloc(1000)
        b = yield from pool.alloc(1000)
        a.write_bytes(b"A" * 1000)
        b.write_bytes(b"B" * 1000)
        assert a.read_bytes(1000) == b"A" * 1000
        assert b.read_bytes(1000) == b"B" * 1000
        a.release()
        b.release()

    run(sim, app())


def test_payload_larger_than_chunk_rejected():
    sim, pool = make_pool()

    def app():
        chunk = yield from pool.alloc(10)
        with pytest.raises(Exception, match="exceeds"):
            chunk.write_bytes(b"x" * 100)
        chunk.release()

    run(sim, app())
