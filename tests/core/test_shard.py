"""Shard map, tenancy, and quota-splitting unit tests.

The ring must be a pure function of the shard count — every client,
server and master derives the identical map with no exchange — and the
tenancy helpers must agree on where a namespace boundary sits.
"""

import math

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.shard import (
    DEFAULT_TENANT,
    ShardMap,
    shard_service,
    split_quota,
    tenant_of,
)
from repro.simnet.config import KiB, MiB
from tests.probes import names_owned


def test_tenant_of_namespace_qualified_names():
    assert tenant_of("acme/table") == "acme"
    assert tenant_of("acme/a/b") == "acme"
    assert tenant_of("bare") == DEFAULT_TENANT
    # a degenerate separator does not make an empty tenant or name
    assert tenant_of("/x") == DEFAULT_TENANT
    assert tenant_of("x/") == DEFAULT_TENANT


def test_shard_service_keeps_shard0_wire_compatible():
    assert shard_service("rstore-master", 0) == "rstore-master"
    assert shard_service("rstore-master", 3) == "rstore-master.3"


def test_split_quota_remainder_goes_to_low_shards_and_keeps_unlimited():
    assert split_quota(None, 4) is None
    assert split_quota(100, 1) == 100
    # 100 = 34 + 33 + 33: shard 0 absorbs the remainder byte
    assert split_quota(100, 3, 0) == 34
    assert split_quota(100, 3, 1) == 33
    assert split_quota(100, 3, 2) == 33
    assert split_quota(99, 3) == 33


@seed(20260808)
@settings(max_examples=200, deadline=None)
@given(quota=st.integers(min_value=0, max_value=10**12),
       num_shards=st.integers(min_value=1, max_value=64))
def test_split_quota_is_an_exact_partition(quota, num_shards):
    shares = [split_quota(quota, num_shards, s) for s in range(num_shards)]
    # the shards together enforce exactly the cluster-wide budget —
    # never a byte more (over-admission) or less (lost capacity)
    assert sum(shares) == quota
    # and the split is fair to within one byte, largest shares first
    assert max(shares) - min(shares) <= 1
    assert shares == sorted(shares, reverse=True)


_names = st.lists(
    st.tuples(st.sampled_from(["acme", "beta", "core", ""]),
              st.integers(min_value=0, max_value=10**6)),
    min_size=1, max_size=120, unique=True,
).map(lambda pairs: [f"{t}/r{i}" if t else f"r{i}" for t, i in pairs])


@seed(20260808)
@settings(max_examples=100, deadline=None)
@given(num_shards=st.integers(min_value=1, max_value=8), names=_names)
def test_ownership_is_a_pure_function_of_control_shards(num_shards, names):
    # two independently built rings (no shared state, no exchange)
    # must agree on every owner, and the owners must partition names
    a, b = ShardMap(num_shards), ShardMap(num_shards)
    assert [a.shard_of(n) for n in names] == [b.shard_of(n) for n in names]
    owned = [names_owned(a, names, s) for s in range(num_shards)]
    assert sorted(n for share in owned for n in share) == sorted(names)
    assert all(0 <= a.shard_of(n) < num_shards for n in names)


@seed(20260808)
@settings(max_examples=100, deadline=None)
@given(num_shards=st.integers(min_value=1, max_value=8), names=_names)
def test_rebalance_only_moves_names_to_the_new_shard(num_shards, names):
    # growing the ring only adds the new shard's points, so a name may
    # move only TO the new shard — never between surviving shards
    before, after = ShardMap(num_shards), ShardMap(num_shards + 1)
    moved = [n for n in names
             if before.shard_of(n) != after.shard_of(n)]
    assert all(after.shard_of(n) == num_shards for n in moved)


@pytest.mark.parametrize("num_shards", range(1, 8))
def test_rebalance_moves_at_most_ceil_k_over_n_names(num_shards):
    # the quantitative half of the growth guarantee: on a large fixed
    # namespace the moved slice is ~K/(N+1), under ceil(K/N).  With 64
    # vnodes the split stays within a few percent of even through 8
    # shards (the _VNODES sizing comment), so the tight bound is
    # asserted up to N=7 and an expected-slice bound at the edge below.
    names = [f"t{i % 7}/region-{i}" for i in range(1000)]
    before, after = ShardMap(num_shards), ShardMap(num_shards + 1)
    moved = [n for n in names
             if before.shard_of(n) != after.shard_of(n)]
    assert all(after.shard_of(n) == num_shards for n in moved)
    assert len(moved) <= math.ceil(len(names) / num_shards)


def test_rebalance_at_the_vnode_sizing_edge_stays_a_small_slice():
    names = [f"t{i % 7}/region-{i}" for i in range(1000)]
    before, after = ShardMap(8), ShardMap(9)
    moved = [n for n in names
             if before.shard_of(n) != after.shard_of(n)]
    assert all(after.shard_of(n) == 8 for n in moved)
    # vnode variance at 8→9 shards: allow up to 2x the 1/9 expectation
    assert len(moved) <= 2 * math.ceil(len(names) / 9)


def test_single_shard_map_owns_everything():
    ring = ShardMap(1)
    assert all(ring.shard_of(f"n{i}") == 0 for i in range(100))


def test_shard_map_is_deterministic_across_instances():
    a, b = ShardMap(4), ShardMap(4)
    names = [f"tenant{i % 3}/region-{i}" for i in range(200)]
    assert [a.shard_of(n) for n in names] == [b.shard_of(n) for n in names]


def test_shard_map_spreads_names_across_all_shards():
    ring = ShardMap(4)
    names = [f"t{i % 5}/r{i}" for i in range(1000)]
    owned = {s: names_owned(ring, names, s) for s in range(4)}
    # ownership partitions the namespace
    assert sorted(n for names_ in owned.values() for n in names_) == (
        sorted(names)
    )
    # consistent hashing with 64 vnodes keeps the split roughly even
    for shard, share in owned.items():
        assert len(share) > 100, (
            f"shard {shard} owns only {len(share)}/1000 names"
        )


def test_shard_map_rejects_out_of_range_ids():
    ring = ShardMap(2)
    with pytest.raises(ValueError):
        ShardMap(0)
    assert set(ring.shard_of(f"k{i}") for i in range(50)) <= {0, 1}


def test_sharded_cluster_routes_each_name_to_its_owner():
    config = RStoreConfig(stripe_size=64 * KiB, control_shards=3)
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=48 * MiB,
    )
    client = cluster.client(1)
    names = [f"t{i % 2}/r{i}" for i in range(12)]

    def app():
        for name in names:
            yield from client.alloc(name, 64 * KiB)
        listed = yield from client.list_regions()
        assert sorted(listed) == sorted(names)

    cluster.run_app(app())
    # every shard holds exactly the names the ring assigns it
    ring = ShardMap(3)
    for shard, master in enumerate(cluster.masters):
        expected = set(names_owned(ring, names, shard))
        assert set(master.regions) == expected
