"""Server-op executor semantics, driven against a live cluster.

These tests talk to the executor both end-to-end (through the client
router) and directly (hand-built ``dp_exec`` requests against the
owning server) where the interesting case — a fenced epoch, a locked
slot, an overflowing deposit — is easier to pin down in isolation.
"""

import pytest

from repro.cluster import build_cluster
from repro.coord.seqlock import mint_token
from repro.core import RStoreConfig
from repro.core.errors import RStoreError, StaleEpochError
from repro.datapath import ops
from repro.datapath.policy import FETCH_BYTES
from repro.kv.hashkv import RKVStore
from repro.simnet.config import KiB, MiB
from tests.probes import create_table, read_record


def fresh_cluster(**overrides):
    config = RStoreConfig(stripe_size=64 * KiB, **overrides)
    return build_cluster(
        num_machines=4, config=config, server_capacity=64 * MiB,
    )


def _owner(cluster, client, store, key):
    """The (server, request-skeleton) pair for *key*'s first probe run."""
    host_id, slots = next(store._probe_runs(store.mapping.desc,
                                            ops.hash64(key)))
    request = client.datapath.request(
        "kv_get", store.mapping, key=key, slots=slots,
        key_size=store.key_size, value_size=store.value_size,
    )
    return cluster.servers[host_id], request


def test_fenced_request_raises_before_touching_memory():
    # the executor applies the same epoch test the NIC's WR path does:
    # a fence (installed when a server re-registers fresh, its slice
    # wiped) must bounce server-ops stamped with the older era before
    # they read recycled bytes
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from RKVStore.create(client, "fence", slots=64,
                                           key_size=16, value_size=64)
        yield from store.put(b"k", b"v")
        server, request = _owner(cluster, client, store, b"k")
        server.nic.set_fence(request["shard"], request["epoch"] + 1)
        assert server.nic.fenced(request["shard"], request["epoch"])
        with pytest.raises(StaleEpochError):
            yield from server._dp.execute(request)
        # a request stamped with the fenced-in era passes
        current = dict(request, epoch=request["epoch"] + 1)
        reply = yield from server._dp.execute(current)
        # a hit names the version read and the slot: the client's hint
        home = (ops.hash64(b"k") % store.slots) * store.slot_size
        assert reply == ("hit", b"v", 2, home)

    cluster.run_app(app())


def test_unknown_op_is_rejected():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from RKVStore.create(client, "huh", slots=8,
                                           key_size=16, value_size=64)
        server, request = _owner(cluster, client, store, b"k")
        with pytest.raises(RStoreError):
            yield from server._dp.execute(dict(request, op="kv_scan"))

    cluster.run_app(app())


def test_locked_slot_reports_busy_without_waiting():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from RKVStore.create(client, "locked", slots=64,
                                           key_size=16, value_size=64)
        yield from store.put(b"k", b"v")
        index = ops.hash64(b"k") % store.slots
        lock = store.slot_lock(index)
        version, body = yield from read_record(lock)
        token = mint_token(client)
        locked = yield from lock.try_lock(version, token)
        assert locked
        server, request = _owner(cluster, client, store, b"k")
        reply = yield from server._dp.execute(request)
        assert reply == ("busy",)
        # release, and the same request now validates and hits
        yield from lock.publish(token, body, version + 2)
        reply = yield from server._dp.execute(request)
        assert reply == ("hit", b"v", version + 2, index * store.slot_size)

    cluster.run_app(app())


def test_probe_walks_tombstones_and_free_slots():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from RKVStore.create(client, "walk", slots=64,
                                           key_size=16, value_size=64)
        yield from store.put(b"gone", b"soon")
        deleted = yield from store.delete(b"gone")
        assert deleted
        server, request = _owner(cluster, client, store, b"gone")
        # the chain must step over the tombstone and stop at the free
        # slot behind it — a definitive miss, not busy or continue
        reply = yield from server._dp.execute(request)
        assert reply == ("free",)

    cluster.run_app(app())


def test_deposit_overflow_names_the_knob():
    # a table whose slots outgrow the fetch buffer is refused the
    # remote_fetch policy, and the executor still refuses a deposit
    # that does not fit — a hand-built request, since the chooser never
    # offers one
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        yield from RKVStore.create(client, "huge", slots=1, key_size=16,
                                   value_size=FETCH_BYTES)
        with pytest.raises(RStoreError, match="fetch buffer"):
            yield from RKVStore.open(client, "huge",
                                     path_policy="remote_fetch")
        store = yield from RKVStore.create(client, "big", slots=64,
                                           key_size=16, value_size=512)
        yield from store.put(b"k", b"x" * 512)
        server, request = _owner(cluster, client, store, b"k")
        request["deposit"] = (0, 64)
        with pytest.raises(RStoreError, match="fetch buffer"):
            yield from server._dp.execute(request)

    cluster.run_app(app())


def test_small_results_deposit_fine_in_a_small_buffer():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "small", slots=64,
                                        key_size=16, value_size=32,
                                        path_policy="remote_fetch")
        yield from store.put(b"k", b"tiny")
        value = yield from store.get(b"k")
        assert value == b"tiny"

    cluster.run_app(app())


def test_counter_burst_applies_in_order_and_wraps():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        from repro.coord.counter import AtomicCounter
        ctr = yield from AtomicCounter.create(client, "wrap",
                                              path_policy="server_op")
        near_top = (1 << 64) - 3
        values = yield from ctr.add_burst([near_top, 5])
        assert values == [near_top, 2]  # wrapped at 2^64 like the FAA unit
        # and the word is durably the wrapped value for one-sided readers
        value = yield from ctr.read()
        assert value == 2

    cluster.run_app(app())


def test_busy_status_is_never_deposited():
    # a deposited "busy" would cost the client a pickup READ just to
    # learn it must retry; statuses return inline even in fetch mode
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from RKVStore.create(client, "nodep", slots=64,
                                           key_size=16, value_size=64)
        yield from store.put(b"k", b"v")
        index = ops.hash64(b"k") % store.slots
        lock = store.slot_lock(index)
        version, _body = yield from read_record(lock)
        locked = yield from lock.try_lock(version, mint_token(client))
        assert locked
        server, request = _owner(cluster, client, store, b"k")
        request["deposit"] = (0, 4096)  # a deposit target is offered...
        reply = yield from server._dp.execute(request)
        assert reply == ("busy",)      # ...but the status returns inline
        yield from lock.abort(version)

    cluster.run_app(app())
