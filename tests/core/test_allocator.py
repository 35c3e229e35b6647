"""Stripe placement tests: placing a stripe reserves it in the chosen
server slot's arena."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocator import ServerSlot, StripeAllocator
from repro.core.arena import Arena
from repro.core.errors import OutOfMemoryError, RStoreError

U = Arena.ALIGNMENT


def make_allocator(servers=3, capacity=1000):
    """*capacity* and every size below count arena alignment units."""
    alloc = StripeAllocator()
    for host in range(servers):
        alloc.add_server(ServerSlot(
            host_id=host, capacity=capacity * U,
            arena=Arena(base=0, capacity=capacity * U),
        ))
    return alloc


def hosts(placement):
    return [tuple(r.host_id for r in stripe.replicas) for stripe in placement]


def test_round_robin_cycles_servers():
    alloc = make_allocator(servers=3)
    placement = alloc.place([10 * U] * 6)
    assert hosts(placement) == [(0,), (1,), (2,), (0,), (1,), (2,)]


def test_round_robin_continues_across_calls():
    alloc = make_allocator(servers=3)
    first = alloc.place([10 * U] * 2)
    second = alloc.place([10 * U] * 2)
    assert hosts(first + second) == [(0,), (1,), (2,), (0,)]


def test_round_robin_skips_full_server():
    alloc = make_allocator(servers=3, capacity=100)
    alloc.server(1).arena.reserve(95 * U)
    placement = alloc.place([10 * U] * 4)
    assert all(1 not in copies for copies in hosts(placement))


def test_out_of_memory_total():
    alloc = make_allocator(servers=2, capacity=100)
    with pytest.raises(OutOfMemoryError):
        alloc.place([150 * U, 150 * U])


def test_out_of_memory_rolls_back_capacity():
    alloc = make_allocator(servers=2, capacity=100)
    before = alloc.total_free
    # fits in total but no single server can hold a 150-byte stripe
    with pytest.raises(OutOfMemoryError):
        alloc.place([150 * U])
    assert alloc.total_free == before


def test_dead_servers_excluded():
    alloc = make_allocator(servers=3)
    alloc.server(1).alive = False
    placement = alloc.place([10 * U] * 4)
    assert all(1 not in copies for copies in hosts(placement))


def test_no_live_servers_raises():
    alloc = make_allocator(servers=1)
    alloc.server(0).alive = False
    with pytest.raises(OutOfMemoryError, match="no live"):
        alloc.place([10 * U])


def test_release_restores_capacity():
    alloc = make_allocator(servers=1, capacity=100)
    [stripe] = alloc.place([60 * U])
    alloc.server(0).arena.release(stripe.addr)
    assert alloc.server(0).free == 100 * U


def test_release_clamps_at_capacity():
    # a release of bytes never reserved is refused, not credited
    alloc = make_allocator(servers=1, capacity=100)
    with pytest.raises(RStoreError):
        alloc.server(0).arena.release(999 * U)
    assert alloc.server(0).free == 100 * U


@settings(max_examples=150, deadline=None)
@given(
    stripes=st.lists(st.integers(min_value=1, max_value=50).map(
        lambda n: n * U), min_size=1, max_size=30),
)
def test_placement_respects_capacity(stripes):
    """Property: placement never over-commits any server."""
    alloc = make_allocator(servers=4, capacity=200)
    try:
        placement = alloc.place(stripes)
    except OutOfMemoryError:
        return
    used: dict[int, int] = {}
    for copies, length in zip(hosts(placement), stripes):
        for host in copies:
            used[host] = used.get(host, 0) + length
    for host, total in used.items():
        assert total <= 200 * U
        assert alloc.server(host).free == 200 * U - total


def test_a_replacement_skips_a_server_whose_free_bytes_are_in_holes():
    alloc = make_allocator(servers=3, capacity=100)
    holes = alloc.server(0).arena
    addrs = [holes.reserve(10 * U) for _ in range(10)]
    for addr in addrs[::2]:
        holes.release(addr)  # the most free, 50 bytes, in 10-byte holes
    alloc.server(1).arena.reserve(60 * U)  # 40 free in one extent
    replica = alloc.place_replacement(20 * U, exclude_hosts=[2])
    assert replica.host_id == 1
    assert alloc.server(1).free == 20 * U
    assert alloc.server(0).free == 50 * U


def test_replicated_placement_uses_distinct_servers():
    alloc = make_allocator(servers=4, capacity=1000)
    placement = alloc.place([10 * U] * 3, replication=2)
    for copies in hosts(placement):
        assert len(copies) == 2
        assert len(set(copies)) == 2


def test_replication_charges_every_copy():
    alloc = make_allocator(servers=3, capacity=100)
    alloc.place([30 * U], replication=3)
    assert alloc.total_free == (3 * 100 - 3 * 30) * U


def test_replication_exceeding_servers_raises():
    alloc = make_allocator(servers=2)
    with pytest.raises(OutOfMemoryError, match="replication"):
        alloc.place([10 * U], replication=3)


def test_replicas_avoid_preferred_primary():
    alloc = make_allocator(servers=3, capacity=1000)
    placement = alloc.place([10 * U, 10 * U], preferred_host=1, replication=2)
    for copies in hosts(placement):
        assert copies[0] == 1
        assert copies[1] != 1


def test_replicated_oom_rolls_back():
    alloc = make_allocator(servers=2, capacity=100)
    before = alloc.total_free
    with pytest.raises(OutOfMemoryError):
        alloc.place([60 * U, 60 * U], replication=2)  # 240 needed, 200 free
    assert alloc.total_free == before
