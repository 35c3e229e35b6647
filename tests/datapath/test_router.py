"""Client-side data-path router: planning, dispatch, and recovery."""

import pytest

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import TenantQuotaExceededError
from repro.datapath import ops
from repro.datapath.policy import FETCH_BYTES
from repro.datapath.router import _FetchBuffer
from repro.kv.hashkv import KvError, KvFullError, RKVStore
from repro.rdma.cm import ConnectError
from repro.rpc.channel import ChannelClosed
from repro.rpc.endpoint import RpcError
from repro.simnet.config import KiB, MiB
from repro.coord.seqlock import mint_token
from tests.probes import (
    count_all,
    create_table,
    host_count,
    preferred_mode,
    read_record,
)


def fresh_cluster(**overrides):
    overrides.setdefault("stripe_size", 64 * KiB)
    config = RStoreConfig(**overrides)
    return build_cluster(
        num_machines=4, config=config, server_capacity=64 * MiB,
    )


def test_one_sided_policy_never_ships_a_server_op():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from RKVStore.create(client, "classic", slots=64,
                                           key_size=16, value_size=64)
        yield from store.put(b"k", b"v")
        value = yield from store.get(b"k")
        assert value == b"v"
        assert count_all(cluster, "datapath.server_ops") == 0
        assert count_all(cluster, "datapath.remote_fetches") == 0

    cluster.run_app(app())


def test_server_op_policy_ships_and_skips_the_fetch_buffer():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "shipped", slots=64,
                                        key_size=16, value_size=64,
                                        path_policy="server_op")
        yield from store.put(b"k", b"v")
        value = yield from store.get(b"k")
        assert value == b"v"
        assert count_all(cluster, "datapath.server_ops") > 0
        assert host_count(client, "datapath.remote_fetches") == 0

    cluster.run_app(app())


def test_remote_fetch_deposits_and_reads_one_sided():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "rfp", slots=64,
                                        key_size=16, value_size=256,
                                        path_policy="remote_fetch")
        payload = b"y" * 256
        yield from store.put(b"k", payload)
        value = yield from store.get(b"k")
        assert value == payload
        router = client.datapath
        assert host_count(client, "datapath.remote_fetches") > 0
        assert router._m_bytes_fetched.value > len(payload)  # pickled

    cluster.run_app(app())


def test_miss_and_full_table_verdicts_match_the_one_sided_path():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def fill(store):
        stored = []
        i = 0
        while len(stored) < store.slots:
            key = b"f%d" % i
            i += 1
            try:
                yield from store.put(key, b"x")
            except KvFullError:
                continue
            stored.append(key)
        return stored

    def app():
        for policy in ("one_sided", "server_op"):
            store = yield from create_table(
                client, f"full-{policy}", slots=4, key_size=16,
                value_size=32, path_policy=policy,
            )
            yield from fill(store)
            # every slot occupied by another key: a get walks the whole
            # window to a definitive miss, a put raises KvFullError
            missing = yield from store.get(b"absent")
            assert missing is None, policy
            with pytest.raises(KvFullError):
                yield from store.put(b"absent", b"z")

    cluster.run_app(app())


def test_multi_get_returns_values_in_key_order_with_misses():
    # a batched lookup is one-sided under every policy: under the
    # server-side ones it must answer the same and ship nothing
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        for policy in ("server_op", "remote_fetch"):
            store = yield from create_table(
                client, f"batch-{policy}", slots=128, key_size=16,
                value_size=64, path_policy=policy,
            )
            for i in range(12):
                yield from store.put(b"m%d" % i, b"val%d" % i)
            keys = [b"m3", b"nope", b"m7", b"m0", b"also-nope"]
            shipped = count_all(cluster, "datapath.server_ops")
            values = yield from store.multi_get(keys)
            assert values == [b"val3", None, b"val7", b"val0", None], policy
            assert count_all(cluster, "datapath.server_ops") == shipped, policy

    cluster.run_app(app())


def test_probe_runs_cover_the_window_in_order_and_split_by_host():
    # a table striped across servers: every probe chain must visit
    # probe_limit slots in probe order, grouped into maximal
    # consecutive same-host runs
    cluster = fresh_cluster(stripe_size=8 * KiB)
    client = cluster.client(1)

    def app():
        store = yield from RKVStore.create(client, "striped", slots=400,
                                           key_size=16, value_size=64)
        router = client.datapath
        desc = store.mapping.desc
        multi = 0
        for base in range(0, 400, 7):
            runs = list(router._probe_runs(desc, store, base))
            flat = [off for _host, slots in runs for off, _addr in slots]
            expected = [((base + p) % store.slots) * store.slot_size
                        for p in range(store.probe_limit)]
            assert flat == expected
            for (host_a, _), (host_b, _) in zip(runs, runs[1:]):
                assert host_a != host_b  # runs are maximal
            if len(runs) > 1:
                multi += 1
        assert multi > 0, "no probe chain ever straddled a stripe"

    cluster.run_app(app())


def test_chain_straddling_stripes_still_resolves_every_key():
    cluster = fresh_cluster(stripe_size=8 * KiB)
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "spill", slots=400,
                                        key_size=16, value_size=64,
                                        path_policy="server_op")
        keys = [b"s%d" % i for i in range(120)]
        for key in keys:
            yield from store.put(key, b"v-" + key)
        for key in keys:
            value = yield from store.get(key)
            assert value == b"v-" + key

    cluster.run_app(app())


def test_store_with_a_tombstone_on_an_earlier_host_finds_the_key_behind_it():
    # the key lives in the chain's second run and a tombstone sits in
    # the first: the first host can neither claim the tombstone (the
    # key may be further down) nor see the rest of the chain, so the
    # store must fall back rather than leave two copies of the key
    cluster = fresh_cluster(stripe_size=8 * KiB)
    client = cluster.client(1)

    def home_key(index, slots):
        return next(key for key in (b"f%d-%d" % (index, i)
                                    for i in range(100_000))
                    if ops.hash64(key) % slots == index)

    def app():
        store = yield from create_table(client, "behind", slots=400,
                                        key_size=16, value_size=64,
                                        path_policy="server_op")
        router = client.datapath
        key, first_run = next(
            (key, runs[0][1])
            for key in (b"k%d" % i for i in range(10_000))
            for runs in [list(router._probe_runs(store.mapping.desc, store,
                                                 ops.hash64(key)))]
            if len(runs) > 1
        )
        fillers = [home_key(slot_off // store.slot_size, store.slots)
                   for slot_off, _addr in first_run]
        for filler in fillers:
            yield from store.put(filler, b"filler")
        yield from store.put(key, b"v1")          # lands in the second run
        assert (yield from store.delete(fillers[0])) is True
        shipped = count_all(cluster, "datapath.server_ops")
        yield from store.put(key, b"v2")
        # the first host answered "reusable"; the rest went one-sided
        assert count_all(cluster, "datapath.server_ops") == shipped + 1
        assert (yield from store.get(key)) == b"v2"
        # an absent key sharing the chain reuses the tombstone
        yield from store.put(fillers[0], b"back")
        assert (yield from store.get(fillers[0])) == b"back"
        assert (yield from store.delete(key)) is True
        assert (yield from store.get(key)) is None

    cluster.run_app(app())


def test_a_server_op_store_leaves_a_one_sided_put_two_round_trips():
    # the store's reply names the slot and the version it published:
    # the handle's next one-sided write of the key locks in the READ's
    # doorbell instead of walking first
    cluster = fresh_cluster()
    client = cluster.client(1)
    nic = client.nic

    def app():
        store = yield from RKVStore.create(client, "refreshed", slots=64,
                                           key_size=16, value_size=64)
        yield from store.put(b"warm", b"w")  # dial the QP, stage once
        shipped = count_all(cluster, "datapath.server_ops")
        assert (yield from client.datapath.kv_put(store, b"k", b"v1"))
        assert count_all(cluster, "datapath.server_ops") == shipped + 1
        bells, wrs = nic.doorbells_rung, nic.ops_posted
        yield from store.put(b"k", b"v2")
        # [READ slot, lock CAS], then [body, version]
        assert (nic.doorbells_rung - bells, nic.ops_posted - wrs) == (2, 4)
        assert count_all(cluster, "datapath.server_ops") == shipped + 1
        assert (yield from store.get(b"k")) == b"v2"

    cluster.run_app(app())


def test_stale_epoch_refreshes_and_retries():
    cluster = fresh_cluster()
    client = cluster.client(1)
    holder = {}

    def setup():
        store = yield from create_table(client, "fenced", slots=64,
                                        key_size=16, value_size=64,
                                        path_policy="server_op")
        yield from store.put(b"k", b"v")
        holder["store"] = store

    cluster.run_app(setup())
    # the master moves an era forward; the servers' fences rise with it
    # (as they would after a fresh re-registration)
    cluster.crash_master()
    cluster.run_app(cluster.restart_master())
    cluster.run(until=cluster.sim.now + 0.5)
    for server in cluster.servers.values():
        server.nic.set_fence(0, 1)

    def after():
        store = holder["store"]
        fenced_before = client.retries_fenced
        value = yield from store.get(b"k")
        assert value == b"v"
        assert client.retries_fenced > fenced_before

    cluster.run_app(after())


def test_busy_slot_backs_off_and_wins_once_the_writer_leaves():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "contended", slots=64,
                                        key_size=16, value_size=64,
                                        path_policy="server_op")
        yield from store.put(b"k", b"v1")
        index = ops.hash64(b"k") % store.slots
        lock = store.slot_lock(index)
        version, _body = yield from read_record(lock)
        token = mint_token(client)
        locked = yield from lock.try_lock(version, token)
        assert locked

        got = []

        def reader():
            value = yield from store.get(b"k")
            got.append(value)

        proc = cluster.sim.process(reader(), name="busy-reader")
        yield cluster.sim.timeout(0.001)  # let it hit the locked slot
        body = ops.encode_body(b"k", b"v2", store.key_size,
                               store.value_size)
        yield from lock.publish(token, body, version + 2)
        yield proc
        assert got == [b"v2"]
        assert host_count(client, "datapath.busy_retries") > 0

    cluster.run_app(app())


def test_fetch_buffer_serializes_concurrent_deposits():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "shared-buf", slots=64,
                                        key_size=16, value_size=128,
                                        path_policy="remote_fetch")
        yield from store.put(b"a", b"A" * 128)
        yield from store.put(b"b", b"B" * 128)
        results = {}

        def getter(key):
            value = yield from store.get(key)
            results[key] = value

        procs = [cluster.sim.process(getter(b"a"), name="get-a"),
                 cluster.sim.process(getter(b"b"), name="get-b"),
                 cluster.sim.process(getter(b"a"), name="get-a2")]
        yield cluster.sim.all_of(procs)
        assert results == {b"a": b"A" * 128, b"b": b"B" * 128}

    cluster.run_app(app())


def test_concurrent_cold_gets_open_one_fetch_buffer():
    # at the parent every cold get opened its own _FetchBuffer (its own
    # lock) over the one dpfetch region, deposits overwrote each other
    # before pickup and two of the six gets returned another key's value
    cluster = build_cluster(num_machines=3, server_hosts=[2],
                            config=RStoreConfig(stripe_size=64 * KiB),
                            server_capacity=64 * MiB)
    client = cluster.client(1)
    keys = [b"k%d" % i for i in range(6)]

    def app():
        store = yield from create_table(client, "cold", slots=64,
                                        key_size=16, value_size=8 * KiB,
                                        path_policy="remote_fetch")
        for key in keys:
            yield from store.put(key, key * (8 * KiB // len(key)))
        router = client.datapath
        opened = []
        open_buffer = router._open_fetch_buffer

        def counting_open(server_host):
            opened.append(server_host)
            return (yield from open_buffer(server_host))

        router._open_fetch_buffer = counting_open
        results = {}

        def getter(key):
            results[key] = yield from store.get(key)

        yield cluster.sim.all_of(
            [cluster.sim.process(getter(key)) for key in keys])
        assert results == {key: key * (8 * KiB // len(key)) for key in keys}
        assert opened == [2] and not router._fetch_opening
        regions = yield from client.list_regions()
        assert [r for r in regions if r.startswith("dpfetch.")] == [
            "dpfetch.h1.s2"]

    cluster.run_app(app())


def test_unplaceable_fetch_buffer_degrades_to_server_op():
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "degrade", slots=64,
                                        key_size=16, value_size=64,
                                        path_policy="remote_fetch")
        yield from store.put(b"k", b"v")
        router = client.datapath
        # force every host's buffer to "placement hint missed": the op
        # must still complete as a plain server-op, nothing deposited
        for host_id in range(cluster.num_machines):
            mapping = store.mapping  # placeholder mapping, never read
            router._fetch_bufs[host_id] = _FetchBuffer(
                mapping, addr=0, capacity=0, usable=False,
            )
        value = yield from store.get(b"k")
        assert value == b"v"
        assert host_count(client, "datapath.remote_fetches") == 0
        assert count_all(cluster, "datapath.server_ops") > 0

    cluster.run_app(app())


def test_dead_server_exhausts_the_redial_budget():
    cluster = build_cluster(
        num_machines=4, config=RStoreConfig(stripe_size=64 * KiB),
        server_capacity=64 * MiB, server_hosts=[2, 3])
    client = cluster.client(1)

    def app():
        from repro.coord.counter import AtomicCounter
        ctr = yield from AtomicCounter.create(client, "orphan",
                                              path_policy="server_op")
        values = yield from ctr.add_burst([1, 2])
        assert values == [1, 3]
        cluster.kill_server(ctr.mapping.desc.stripes[0].host_id)
        # the cached channel dies first, then every redial finds the
        # host unreachable until the data retry budget drains
        with pytest.raises((RpcError, ChannelClosed, ConnectError)):
            yield from ctr.add_burst([4])

    cluster.run_app(app())


def test_counter_burst_refreshes_a_stale_epoch():
    cluster = fresh_cluster()
    client = cluster.client(1)
    holder = {}

    def setup():
        from repro.coord.counter import AtomicCounter
        ctr = yield from AtomicCounter.create(client, "fenced-ctr",
                                              path_policy="server_op")
        values = yield from ctr.add_burst([1])
        assert values == [1]
        holder["ctr"] = ctr

    cluster.run_app(setup())
    cluster.crash_master()
    cluster.run_app(cluster.restart_master())
    cluster.run(until=cluster.sim.now + 0.5)
    for server in cluster.servers.values():
        server.nic.set_fence(0, 1)

    def after():
        fenced_before = client.retries_fenced
        values = yield from holder["ctr"].add_burst([2, 3])
        assert values == [3, 6]
        assert client.retries_fenced > fenced_before

    cluster.run_app(after())


def test_adaptive_policy_converges_and_stays_correct():
    cluster = fresh_cluster(datapath_probe_every=8)
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "adaptive", slots=256,
                                        key_size=16, value_size=64,
                                        path_policy="adaptive")
        for i in range(60):
            yield from store.put(b"a%d" % i, b"v%d" % i)
        for _round in range(3):
            for i in range(60):
                value = yield from store.get(b"a%d" % i)
                assert value == b"v%d" % i
        sel = store._selector
        # every substrate was sampled and a preference emerged
        assert set(sel._classes["get"].ewma) == {
            "one_sided", "server_op", "remote_fetch"}
        assert preferred_mode(sel, "get") in ("one_sided", "server_op",
                                       "remote_fetch")
        # puts never leave their restricted substrate set
        assert set(sel._classes["put"].ewma) <= {"one_sided", "server_op"}

    cluster.run_app(app())


BIG = 96 * KiB  # a value no RPC message (64 KiB) can carry
HUGE = FETCH_BYTES  # a value whose slot no fetch buffer can carry either


def test_fixed_policy_whose_slots_outgrow_its_transport_is_refused():
    # at the parent both tables opened fine and the first op died with
    # an untyped MessageTooLarge (inside the server's RPC handler for a
    # get: the whole simulation went down with it)
    cluster = fresh_cluster()
    client = cluster.client(1)

    def app():
        # one-sided IO carries any slot
        store = yield from RKVStore.create(client, "big", slots=8,
                                           key_size=16, value_size=HUGE)
        yield from store.put(b"k", b"v" * HUGE)
        for policy, transport in (("server_op", "channel"),
                                  ("remote_fetch", "fetch buffer")):
            with pytest.raises(KvError, match=transport):
                yield from RKVStore.open(client, "big", path_policy=policy)

    cluster.run_app(app())


@pytest.mark.parametrize("value_size, get_modes", [
    (HUGE, {"one_sided"}),                     # nothing server-side fits
    (64 * KiB, {"one_sided", "remote_fetch"}),  # a slot fits the buffer
])
def test_adaptive_only_considers_modes_its_slots_fit(value_size, get_modes):
    cluster = fresh_cluster(datapath_probe_every=4)
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "big", slots=64,
                                        key_size=16, value_size=value_size,
                                        path_policy="adaptive")
        model = {}
        for i in range(64):
            key = b"k%d" % (i // 4 % 4)  # put, get, get, multi_get each
            if i % 4 == 0:
                model[key] = bytes([i]) * value_size
                yield from store.put(key, model[key])
            elif i % 4 == 3:
                values = yield from store.multi_get([key, b"ghost"])
                assert values == [model.get(key), None]
            else:
                assert (yield from store.get(key)) == model.get(key)
        sel = store._selector
        assert set(sel._candidates["get"]) == get_modes
        # a store's request never fits the channel: nothing to choose
        assert sel._candidates["put"] == ("one_sided",)
        router = client.datapath
        if "remote_fetch" in get_modes:
            # both candidates were sampled, and values came back by pickup
            assert set(sel._classes["get"].ewma) == get_modes
            assert host_count(client, "datapath.remote_fetches") > 0
        else:
            assert count_all(cluster, "datapath.server_ops") == 0

    cluster.run_app(app())


def test_a_refused_fetch_buffer_surfaces_the_real_error():
    # the quota fits the table but not the 256 KiB deposit region: the
    # refusal must reach the caller as itself, not as a failed lookup
    # of a buffer that was never made
    cluster = fresh_cluster(tenant_quota_bytes={"default": 200 * KiB})
    client = cluster.client(1)

    def app():
        store = yield from create_table(client, "tight", slots=1024,
                                        key_size=16, value_size=64,
                                        path_policy="remote_fetch")
        yield from store.put(b"k", b"v")
        with pytest.raises(TenantQuotaExceededError):
            yield from store.get(b"k")

    cluster.run_app(app())
