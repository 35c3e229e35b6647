"""Client metadata cache: leases, single-flight, invalidation.

The cache contract: under a live lease, ``map`` never touches a
master; an epoch bump (master restart) or an explicit ``free`` evicts;
a missing name is remembered only for ``META_NEGATIVE_TTL_S``; and N
concurrent misses for the same cold name coalesce onto exactly one
lookup RPC.
"""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import RegionNotFoundError
from repro.core.metacache import META_LEASE_S, META_NEGATIVE_TTL_S
from repro.simnet.config import KiB, MiB
from tests.probes import host_count


def fresh_cluster(**overrides):
    config = RStoreConfig(stripe_size=64 * KiB, **overrides)
    return build_cluster(
        num_machines=4, config=config, server_capacity=64 * MiB,
    )


def test_warm_map_issues_zero_master_rpcs():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        yield from client.alloc("leased", 256 * KiB)
        baseline = client.master_calls
        for _ in range(8):
            yield from client.map("leased")
        assert client.master_calls == baseline, (
            "map under a live lease went to the master"
        )
        assert client.metadata_cache_hits >= 8

    cluster.run_app(app())


def test_lease_expiry_refetches_once():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        yield from client.alloc("leased", 256 * KiB)
        yield cluster.sim.timeout(2 * META_LEASE_S)  # outlive the lease
        misses = client.metadata_cache_misses
        baseline = client.master_calls
        yield from client.map("leased")
        assert client.master_calls == baseline + 1
        assert client.metadata_cache_misses == misses + 1
        # the refetch renewed the lease: the next map is warm again
        yield from client.map("leased")
        assert client.master_calls == baseline + 1

    cluster.run_app(app())


def test_free_evicts_the_lease():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        yield from client.alloc("gone", 128 * KiB)
        yield from client.map("gone")
        yield from client.free("gone")
        with pytest.raises(RegionNotFoundError):
            yield from client.map("gone")

    cluster.run_app(app())


def test_a_refused_free_still_evicts_the_lease():
    cluster = fresh_cluster()
    owner, other = cluster.client(1), cluster.client(2)

    def app():
        yield from owner.alloc("shared", 128 * KiB)  # leased by owner
        yield from other.free("shared")
        # the arena bytes behind owner's lease now belong to this region
        yield from other.alloc("next", 128 * KiB)
        with pytest.raises(RegionNotFoundError):
            yield from owner.free("shared")
        with pytest.raises(RegionNotFoundError):
            yield from owner.map("shared")

    cluster.run_app(app())


def test_negative_entries_expire():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        with pytest.raises(RegionNotFoundError):
            yield from client.map("phantom")
        # inside the TTL: the refusal is served from the cache
        baseline = client.master_calls
        with pytest.raises(RegionNotFoundError):
            yield from client.map("phantom")
        assert client.master_calls == baseline
        # once the TTL lapses (and the region exists) map succeeds
        yield cluster.sim.timeout(2 * META_NEGATIVE_TTL_S)
        yield from client.alloc("phantom", 128 * KiB)
        mapping = yield from client.map("phantom")
        assert mapping is not None

    cluster.run_app(app())


def test_epoch_bump_evicts_cached_leases():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def setup():
        yield from client.alloc("fenced", 256 * KiB)
        mapping = yield from client.map("fenced")
        yield from mapping.write(0, b"x" * 512)

    cluster.run_app(setup())
    cluster.crash_master()
    cluster.run_app(cluster.restart_master())
    cluster.run(until=cluster.sim.now + 0.5)

    def after():
        # a stale-cached mapping still serves one-sided reads — the
        # surviving server kept its arena, so the data never moved
        mapping = yield from client.map("fenced")
        data = yield from mapping.read(0, 512)
        assert data == b"x" * 512
        # the next control mutation carries the stale observed epoch,
        # gets fenced, refreshes — and the refreshed epoch evicts the
        # cached lease, so the following map refetches
        yield from client.alloc("other", 128 * KiB)
        assert client.retries_fenced > 0
        misses = client.metadata_cache_misses
        yield from client.map("fenced")
        assert client.metadata_cache_misses == misses + 1

    cluster.run_app(after())


def test_negative_entry_from_lookup_in_flight_across_bump_is_dropped():
    """Regression: a miss whose lookup was issued under the old epoch
    but whose refusal landed after the client had already observed the
    bump used to be stamped with the *new* epoch — so a region created
    under the new era hid behind the cached refusal for the whole
    negative TTL.  The refusal must be stamped with the era it was
    issued under, and a later ``map`` must refetch, not re-refuse."""
    cluster = fresh_cluster()
    client = cluster.client(1)
    owner = cluster.client(2)

    def setup():
        yield from client.alloc("warm", 128 * KiB)

    cluster.run_app(setup())
    cluster.crash_master()
    cluster.run_app(cluster.restart_master())
    cluster.run(until=cluster.sim.now + 0.5)

    order, missed_at = [], []

    def misser():
        # lookup starts while this client still believes the old
        # epoch; its refusal lands after the learner bumps the view
        with pytest.raises(RegionNotFoundError):
            yield from client.map("victim")
        order.append("missed")
        missed_at.append(cluster.sim.now)

    def learner():
        # a fenced control op: refreshes this client's epoch view
        yield from client.alloc("other", 128 * KiB)
        order.append("learned")

    def race():
        procs = [cluster.sim.process(misser(), name="misser"),
                 cluster.sim.process(learner(), name="learner")]
        yield cluster.sim.all_of(procs)

    cluster.run_app(race())
    # the schedule must exercise the in-flight window: the epoch was
    # learned before the refusal was cached
    assert order == ["learned", "missed"]
    assert client.retries_fenced > 0

    def after():
        # the region is born under the new era; the client must see it
        # while the cached refusal's negative TTL is still running
        yield from owner.alloc("victim", 128 * KiB)
        assert cluster.sim.now - missed_at[0] < META_NEGATIVE_TTL_S
        mapping = yield from client.map("victim")
        assert mapping is not None

    cluster.run_app(after())


def test_stale_era_refusal_is_evicted_at_serve_time():
    """The serve-time half of the same regression: an entry stamped
    under an older era than the client has since observed must never
    be served, even though its TTL is still running."""
    cluster = fresh_cluster()
    client = cluster.client(1)
    owner = cluster.client(2)

    def app():
        yield from owner.alloc("victim", 128 * KiB)
        # replay lookup()'s late-reply interleaving by hand: the bump
        # is observed first, then the refusal (issued under epoch 0)
        # lands and is cached — after note_epoch already swept, so
        # only the serve-time staleness check can catch it
        meta = client._meta
        meta.note_epoch(meta.epochs.get(0, 0) + 1, shard=0)
        meta.store_negative("victim", 0, as_of=0)
        misses = client.metadata_cache_misses
        mapping = yield from client.map("victim")
        assert mapping is not None
        assert client.metadata_cache_misses == misses + 1

    cluster.run_app(app())


def test_32_concurrent_misses_coalesce_to_one_rpc():
    cluster = fresh_cluster()
    owner = cluster.client(2)
    client = cluster.client(1)

    def setup():
        yield from owner.alloc("popular", 256 * KiB)

    cluster.run_app(setup())
    assert client.master_calls == 0
    mapped = []

    def mapper():
        mapping = yield from client.map("popular")
        mapped.append(mapping)

    def storm():
        procs = [cluster.sim.process(mapper(), name=f"mapper-{i}")
                 for i in range(32)]
        yield cluster.sim.all_of(procs)

    cluster.run_app(storm())
    assert len(mapped) == 32
    assert client.master_calls == 1, (
        "a concurrent-miss storm must cost exactly one lookup RPC"
    )
    assert client.metadata_cache_misses == 1
    assert host_count(client, "client.metadata_cache_coalesced") == 31
