"""The per-verb kernel event budget.

One blocking 128 B remote op on an idle one-server cluster costs an exact
number of kernel queue entries; DESIGN.md's budget table lists what each
one is.  A relay hop that creeps back in (an event that only forwards
to the next callback at the same simulated instant) fails here, not in
a benchmark three PRs later.  The same goes for the protocols built on
the verbs: a validated SeqLock read is one doorbell and one round trip,
a publish is one ordered ``[body, version]`` pair on one doorbell, a
transaction commit is an intent flush and a publish flush — and a
per-write doorbell creeping back fails here too.  Each hash-table op is
held to a (doorbells, WRs, round trips) floor by what its client knows
of the key's slot: a hinted get is one round trip at any chain depth,
and so is a cold get within the window its client's hints price.
"""

import contextlib
import functools
import tracemalloc

from repro.cluster import build_cluster
from repro.coord.seqlock import snapshots
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.simnet.config import GiB, KiB, MiB
from repro.sort import RSort
from tests.probes import (
    materialized_bytes, read_record, record, same_home, write_record,
)

#: NIC and wire entries every one-sided verb pays: launch, the request's
#: ingress claim and delivery, the remote DMA, the response's ingress
#: claim and delivery, the completion.
_NIC_PATH = 7
#: the client's turns: the data CQ's consumer call (a bare call, where
#: a dispatcher process used to wake), then the waiting future
_CLIENT_WAKEUPS = 2


@functools.cache
def _costs():
    cluster = build_cluster(num_machines=3, server_hosts=[0])
    # hosts 1 and 2 hold no memory: every op is remote.  Host 2 is the
    # rival: its own hint table, so what it writes leaves host 1's
    # hints stale and what it reads it reads cold
    client, other = cluster.client(1), cluster.client(2)
    sim = cluster.sim
    costs, posted = {}, {}

    def measured(name, op, round_trips=1, by=client):
        nic = by.nic
        before, started = sim.events_processed, sim.now
        bells, wrs = nic.doorbells_rung, nic.ops_posted
        yield from op
        costs[name] = sim.events_processed - before
        # (doorbells, WRs, round trips)
        posted[name] = (nic.doorbells_rung - bells, nic.ops_posted - wrs,
                        round_trips)
        # that many round trips, no queueing
        assert 2e-6 < (sim.now - started) / round_trips < 5e-6

    def app():
        region = yield from client.alloc("budget", 4096)
        mapping = yield from client.map(region)
        # warm the QP and the local staging buffers first
        yield from mapping.write(0, b"w" * 128)
        yield from mapping.read(0, 128)
        yield from mapping.faa(1024, 1)
        yield from measured("read", mapping.read(0, 128))
        yield from measured("write", mapping.write(0, b"x" * 128))
        yield from measured("faa", mapping.faa(1024, 1))
        # a 128 B record, and a table whose key sits at probe 1
        rec = yield from record(client, "budget-record", 120, create=True)
        yield from write_record(rec, b"r" * 120)
        yield from read_record(rec)
        yield from measured("validated read", snapshots(
            rec.mapping, (rec.offset,), rec.record_size))
        table = yield from RKVStore.create(client, "budget-table", slots=64)
        # the rival's handle: warm its QP and staging buffers first
        rival = yield from RKVStore.open(other, "budget-table")
        yield from rival.snapshot_slot(0)
        # a fresh key into an empty chain: the walk's first hop CASes
        # the never-used slot from 0 beside its READ, then the pair
        yield from measured("insert", table.put(b"key", b"v" * 64),
                            round_trips=2)
        yield from table.put(b"key", b"w" * 64)
        # the client knows the slot: [READ, lock CAS] on one doorbell,
        # then body and version as one ordered pair
        yield from measured("put overwrite", table.put(b"key", b"x" * 64),
                            round_trips=2)
        # another client knows nothing: walk, lock CAS, the pair
        yield from measured("cold put", rival.put(b"key", b"y" * 64),
                            round_trips=3, by=other)
        # ... and its publish left this client's hint stale: the lost
        # CAS validates the READ beside it, which still holds the key,
        # so one more CAS from there — never a walk
        yield from measured("stale-hint put", table.put(b"key", b"z" * 64),
                            round_trips=3)
        # a hint whose slot moved on: the other client deletes the key,
        # so the lost CAS's READ shows a tombstone and the put walks as
        # a cold one would — one round trip more than the walk alone
        yield from rival.delete(b"key")
        yield from measured("moved-hint put", table.put(b"key", b"k" * 64),
                            round_trips=5)
        # a chain three deep: a get of its last key reads its slot
        # first where the client saw it, and walks the chain where not
        chained = same_home(table.slots, 4)
        for key in chained[:3]:
            yield from table.put(key, b"c" * 64)
        yield from measured("hinted get", table.get(chained[2]))
        yield from measured("cold get", rival.get(chained[2]),
                            round_trips=3, by=other)
        # ... which located a key three deep: the rival's next get of a
        # key it never saw reads three slots from the key's home at once
        deep = same_home(table.slots, 3, home=table.slots - 24)
        for key in deep:
            yield from table.put(key, b"d" * 64)
        yield from measured("windowed cold get", rival.get(deep[2]),
                            by=other)
        # a delete locks as a put does, then publishes the tombstone
        yield from measured("hinted delete", table.delete(chained[1]),
                            round_trips=2)
        yield from measured("cold delete", rival.delete(chained[0]),
                            round_trips=3, by=other)
        yield from table.put(b"other", b"v" * 64)
        runtime = table.txn()

        def transfer(txn):
            for key in (b"key", b"other"):
                value = yield from txn.get(table, key)
                yield from txn.put(table, key, value[::-1])

        yield from runtime.run(transfer)
        # two snapshot READs, then the commit: both intents on one
        # flush, both publishes on one flush
        yield from measured("two-key transfer", runtime.run(transfer),
                            round_trips=4)

    cluster.run_app(app())
    return costs, posted


def test_one_blocking_remote_op_costs_a_pinned_number_of_kernel_events():
    costs, _posted = _costs()
    assert {verb: costs[verb] for verb in ("read", "write", "faa")} == {
        # + the client's issue overhead, one CPU charge
        "read": 1 + _NIC_PATH + _CLIENT_WAKEUPS,
        # + the staging copy of the payload and the issue overhead
        "write": 2 + _NIC_PATH + _CLIENT_WAKEUPS,
        # atomics carry no payload and pay no issue overhead
        "faa": _NIC_PATH + _CLIENT_WAKEUPS,
    }


def test_a_validated_read_is_one_doorbell_and_one_round_trip():
    costs, posted = _costs()
    # [READ record, READ word] on one doorbell: (doorbells, WRs,
    # round trips)
    assert posted["validated read"] == (1, 2, 1)
    # one issue overhead for the doorbell and a NIC path per READ; only
    # the signaled tail reaches the CQ consumer, which resolves both
    # futures at once — the waiter wakes once
    assert costs["validated read"] == 1 + 2 * _NIC_PATH + _CLIENT_WAKEUPS


def test_a_put_to_a_known_slot_locks_in_its_first_round_trip():
    _kernel_entries, posted = _costs()
    # [READ slot, lock CAS], then [body, version]: no walk
    assert posted["put overwrite"] == (2, 4, 2)
    # a fresh key: [READ slot, CAS 0 → token] wins the never-used
    # slot that ends the chain, then [body, version]
    assert posted["insert"] == (2, 4, 2)
    # no hint: the walk's [READ slot, CAS 0 → token] finds the key (the
    # lost CAS's word validates the READ), the CAS from its version,
    # then [body, version] on one doorbell — no guard READ between the
    # lock and the publish
    assert posted["cold put"] == (3, 5, 3)
    # a stale hint whose slot still holds the key costs what the walk
    # did: the lost CAS's READ is the walk
    assert posted["stale-hint put"] == (3, 5, 3)
    # a hint whose slot moved on costs one round trip more than the
    # walk: [READ, CAS], then the walk past the tombstone (two pairs:
    # the tombstone's CAS from 0 loses to its word, and the hop behind
    # it posts none), the CAS and the publish
    assert posted["moved-hint put"] == (5, 9, 5)


#: (doorbells, WRs, round trips) of each kv op by what its client knows
#: of the key's slot — the floor each op of the table is held to
_KV_FLOOR = {
    # [READ slot, READ word] at the hinted slot, at any chain depth
    "hinted get": (1, 2, 1),
    # the same pair per hop, for a key at depth 3, from a client that
    # has located no key deeper than its home
    "cold get": (3, 6, 3),
    # [READ 3 slots, READ their words], for a key at depth 3, from a
    # client that has located keys that deep
    "windowed cold get": (1, 2, 1),
    # the walk's [READ, CAS 0 → token] wins the never-used slot, then
    # [body, version]
    "insert": (2, 4, 2),
    # [READ, lock CAS] at the hinted slot, then [body, version]
    "put overwrite": (2, 4, 2),
    # the walk's lost CAS validates its READ, a CAS from that version,
    # then [body, version]
    "cold put": (3, 5, 3),
    # as a hinted put, publishing a tombstone
    "hinted delete": (2, 4, 2),
    # a delete walks with plain validated reads: [READ, READ], the
    # lock CAS, then [body, version]
    "cold delete": (3, 5, 3),
}


def test_each_kv_op_costs_its_floor_by_hint_state():
    _kernel_entries, posted = _costs()
    assert {row: posted[row] for row in _KV_FLOOR} == _KV_FLOOR


@contextlib.contextmanager
def _peak(peaks, name):
    """Record in *peaks* the bytes newly held at most inside the block."""
    tracemalloc.start()
    try:
        yield
        peaks[name] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@functools.cache
def _copy_peaks():
    """Peak bytes newly held during one warm 1 MiB ``read_into`` and one
    ``write_from`` (QP dialled, every block at both ends written, and
    the remote blocks still shared with the last READ's snapshot), and
    during one warm 1 MiB ``Mapping.write`` and ``Buffer.write`` of a
    ``bytes`` and of a ``bytearray`` payload; for the ``bytearray``,
    also whether both copies kept what it held when written, once it
    changed."""
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    client = cluster.client(1)
    peaks = {}

    def app():
        region = yield from client.alloc("copies", MiB)
        mapping = yield from client.map(region)
        local = yield from client.alloc_local(MiB)
        local.buffer.write(0, b"c" * MiB)
        yield from mapping.write_from(local, local.addr, 0, MiB)
        yield from mapping.read_into(local, local.addr, 0, MiB)
        with _peak(peaks, "read_into"):
            yield from mapping.read_into(local, local.addr, 0, MiB)
        with _peak(peaks, "write_from"):
            yield from mapping.write_from(local, local.addr, 0, MiB)
        for kind in (bytes, bytearray):
            payload = kind(b"w" * MiB)
            yield from mapping.write(0, payload)  # the staging blocks too
            with _peak(peaks, f"Mapping.write {kind.__name__}"):
                yield from mapping.write(0, payload)
            with _peak(peaks, f"Buffer.write {kind.__name__}"):
                local.buffer.write(0, payload)
        payload[:] = b"v" * MiB
        peaks["bytearray kept"] = (
            (yield from mapping.read(0, MiB)) == local.buffer.read(0, MiB)
            == b"w" * MiB)

    cluster.run_app(app())
    return peaks


def test_a_one_sided_transfer_copies_its_bytes_once():
    peaks = _copy_peaks()
    # the READ's snapshot shares the remote blocks and the local buffer
    # adopts them: no payload-sized buffer anywhere
    assert peaks["read_into"] < 64 * KiB, peaks
    # the WRITE's snapshot shares the local blocks and the remote buffer
    # adopts them in turn (copying them there measured 1.01 MiB)
    assert peaks["write_from"] < 64 * KiB, peaks


def test_a_bytes_write_copies_none_of_its_bytes():
    peaks = _copy_peaks()
    # the staging buffer adopts the payload's blocks and the WRITE
    # shares them on to the remote buffer (the staging copy measured
    # 1.01 MiB, and so did a direct write)
    assert peaks["Mapping.write bytes"] < 64 * KiB, peaks
    assert peaks["Buffer.write bytes"] < 64 * KiB, peaks


def test_a_bytearray_write_copies_its_bytes_once():
    peaks = _copy_peaks()
    # the caller may change a bytearray later: one copy, at the first
    # buffer (into its blocks, or into new ones where they are shared),
    # and the transfer shares that copy on
    for name in ("Mapping.write bytearray", "Buffer.write bytearray"):
        assert peaks[name] < MiB + 64 * KiB, peaks
    assert peaks["bytearray kept"], peaks


def test_an_rpc_ring_holds_what_its_messages_carried():
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    client = cluster.client(1)

    def app():
        yield from client.alloc("ring", 4096)
        for _ in range(100):  # every one of the 32 receive slots is used
            yield from client.lookup("ring")

    cluster.run_app(app())
    router = client._router
    channel = router._clients.clients[router.shard_of("ring")]._channel
    held = (materialized_bytes(channel._recv_mr.buffer)
            + materialized_bytes(channel._send_mr.buffer))
    # a few hundred bytes per message; a whole 64 KiB block per slot
    # would be 2 MiB for the receive ring alone
    assert held <= 64 * KiB, held


#: queue entries the background loops (server heartbeat, lease
#: upkeep) may hold at any one instant, whatever the client has done
_HEARTBEAT_ALLOWANCE = 8


def test_a_met_control_deadline_leaves_nothing_queued():
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    client = cluster.client(1)
    sim = cluster.sim
    lengths = []

    def cycle(name):
        region = yield from client.alloc(name, 4096)
        mapping = yield from client.map(region)
        yield from mapping.write(0, b"c" * 128)
        mapping.unmap()
        yield from client.free(name)

    def app():
        yield from cycle("warm")
        lengths.append(len(sim._queue))
        for i in range(200):
            yield from cycle(f"cycle-{i}")
        lengths.append(len(sim._queue))

    cluster.run_app(app())
    before, after = lengths
    # each alloc and free used to leave its 2 s deadline queued: +400
    assert after - before <= _HEARTBEAT_ALLOWANCE, lengths


def test_a_commit_is_an_intent_flush_and_a_publish_flush():
    _kernel_entries, posted = _costs()
    # READ, READ, [CAS, CAS], [body, version, body, version]: the same
    # eight work requests the parent posted on eight doorbells, one
    # dependent round trip each
    assert posted["two-key transfer"] == (4, 8, 4)


@functools.cache
def _scaled_posts():
    """``(opcode, real bytes, wire bytes)`` of every WR one op posts
    through mappings of one region at three wire scales."""
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    client = cluster.client(1)
    nic = client.nic
    posts, seen = {}, []
    submit_many = nic.submit_many

    def spy(qp, wrs):
        seen.extend((wr.opcode.name, wr.length, wr.bytes_on_wire)
                    for wr in wrs)
        submit_many(qp, wrs)

    nic.submit_many = spy

    def measured(name, op):
        seen.clear()
        yield from op
        posts[name] = list(seen)

    def app():
        region = yield from client.alloc("scaled", 64 * KiB)
        by_64 = yield from client.map(region, wire_scale=64)
        by_2_20 = yield from client.map(region, wire_scale=2 ** 20)
        plain = yield from client.map(region)
        local = yield from client.alloc_local(64 * KiB)
        yield from plain.write(0, b"w" * 128)  # warm the QP and staging
        yield from measured("write_from", by_64.write_from(
            local, local.addr, 0, 64 * KiB))
        yield from measured("faa", by_2_20.faa(0, 1))
        yield from measured("read", plain.read(0, 8))

    cluster.run_app(app())
    return posts


def test_a_scaled_write_is_cut_to_full_size_wire_chunks():
    # 64 KiB at scale 64 is 4 MiB on the wire: four 16 KiB pieces of
    # 1 MiB (the wire-chunk ceiling) each
    assert _scaled_posts()["write_from"] == [
        ("RDMA_WRITE", 16 * KiB, MiB)] * 4


def test_an_atomic_through_a_scaled_mapping_stays_one_8_byte_wr():
    # at 2**20, a scaled cut would be MAX_WIRE_CHUNK // scale = 1 byte
    assert _scaled_posts()["faa"] == [("ATOMIC_FAA", 8, 8)]


def test_an_unscaled_map_of_a_scaled_region_carries_real_bytes():
    assert _scaled_posts()["read"] == [("RDMA_READ", 8, 8)]


def test_a_small_scaled_sort_costs_a_pinned_number_of_events():
    cluster = build_cluster(num_machines=4,
                            config=RStoreConfig(stripe_size=1 * MiB),
                            server_capacity=1 * GiB)
    stats = cluster.run_app(RSort(cluster, 300, scale=4096, seed=5).run())
    client_wrs = sum(c.nic.ops_posted for c in cluster.clients.values())
    assert (stats.elapsed, client_wrs, cluster.sim.events_processed) == (
        0.14168041756199665, 3433, 27543)


def test_a_warm_control_cycle_costs_a_pinned_number_of_kernel_events():
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    client = cluster.client(1)
    sim = cluster.sim

    def cycle(name):
        region = yield from client.alloc(name, 4096)
        mapping = yield from client.map(region)
        yield from mapping.write(0, b"c" * 128)
        mapping.unmap()
        yield from client.free(name)

    def app():
        yield from cycle("warm")
        before = sim.events_processed
        yield from cycle("measured")
        return sim.events_processed - before

    # alloc and free carve and return stripes in the master's own
    # slice: neither sends the memory server anything
    assert cluster.run_app(app()) == 67
