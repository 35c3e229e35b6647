"""Unit and property tests for the server arena allocator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.arena import Arena
from repro.core.errors import OutOfMemoryError, RStoreError
from tests.probes import live_allocations

U = Arena.ALIGNMENT


def test_reserve_release_roundtrip():
    arena = Arena(base=0x1000, capacity=10 * U)
    addr = arena.reserve(U)
    assert addr == 0x1000
    assert arena.free_bytes == 9 * U
    assert arena.release(addr) == U
    assert arena.free_bytes == 10 * U


def test_reservations_are_aligned():
    assert U == 64
    arena = Arena(base=0x1000, capacity=4096)
    a = arena.reserve(100)  # rounds to 128
    b = arena.reserve(10)
    assert a % 64 == 0 and b % 64 == 0
    assert b == a + 128


def test_misaligned_base_rejected():
    with pytest.raises(ValueError):
        Arena(base=3, capacity=100)


def test_reservations_do_not_overlap():
    arena = Arena(base=0, capacity=10 * U)
    spans = []
    for _ in range(10):
        addr = arena.reserve(U)
        spans.append((addr, addr + U))
    spans.sort()
    for (_s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2


def test_out_of_memory_raises():
    arena = Arena(base=0, capacity=2 * U)
    arena.reserve(U + 1)  # rounds to 2 * U
    with pytest.raises(OutOfMemoryError):
        arena.reserve(1)


def test_fragmentation_then_coalesce():
    arena = Arena(base=0, capacity=3 * U)
    a = arena.reserve(U)
    b = arena.reserve(U)
    c = arena.reserve(U)
    arena.release(a)
    arena.release(c)
    # two one-unit holes, not adjacent: a two-unit reservation must fail
    with pytest.raises(OutOfMemoryError):
        arena.reserve(2 * U)
    arena.release(b)
    # now everything coalesced back into one extent
    assert arena.reserve(3 * U) == 0


def test_release_unknown_address_rejected():
    arena = Arena(base=0, capacity=2 * U)
    with pytest.raises(RStoreError):
        arena.release(U)


def test_double_release_rejected():
    arena = Arena(base=0, capacity=2 * U)
    addr = arena.reserve(10)
    arena.release(addr)
    with pytest.raises(RStoreError):
        arena.release(addr)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        Arena(base=0, capacity=0)
    arena = Arena(base=0, capacity=U)
    with pytest.raises(ValueError):
        arena.reserve(0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=4 * U)),
        max_size=60,
    )
)
def test_arena_invariants_hold_under_any_sequence(ops):
    """Property: accounting exact, no overlap, full coalescing on drain."""
    capacity = 32 * U
    arena = Arena(base=0x40, capacity=capacity)
    live: list[int] = []
    expected_used = 0
    for is_alloc, size in ops:
        if is_alloc:
            try:
                addr = arena.reserve(size)
            except OutOfMemoryError:
                continue
            live.append(addr)
            expected_used += -(-size // U) * U
        elif live:
            addr = live.pop()
            expected_used -= arena.release(addr)
        assert arena.capacity - arena.free_bytes == expected_used
        assert arena.free_bytes == capacity - expected_used
    for addr in live:
        arena.release(addr)
    assert arena.free_bytes == capacity
    assert live_allocations(arena) == 0
    # fully coalesced: the whole capacity is reservable again
    assert arena.reserve(capacity) == 0x40


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=300)),
        max_size=60,
    )
)
def test_an_arena_rebuilt_from_its_reservations_is_the_same_arena(ops):
    """Property: ``holding`` — a master's rebuild after a restart —
    yields the free list the reserves and releases left behind."""
    arena = Arena(base=0x1000, capacity=64 * 64)
    live: dict[int, int] = {}
    for is_alloc, size in ops:
        if is_alloc:
            try:
                live[arena.reserve(size)] = size
            except OutOfMemoryError:
                continue
        elif live:
            arena.release(live.popitem()[0])
    rebuilt = Arena.holding(arena.base, arena.capacity, live.items())
    assert rebuilt._free == arena._free
    assert rebuilt.free_bytes == arena.free_bytes
    for addr in live:
        rebuilt.release(addr)
    assert rebuilt.reserve(arena.capacity) == arena.base
