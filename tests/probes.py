"""What tests read of a component's state, kept out of ``src/repro``.

Production code reports through the metrics registry, not through
per-object accessors, so tests read counters the way ``bench/report.py``
does.  The few other readings tests need live here too, and so do the
helpers that drive what production code reaches only from inside a data
structure (a standalone ``SeqLock`` record, a watched future), so that
nothing in ``src/repro`` exists for tests alone
(``tests/test_no_test_only_api.py``).
"""

# repro.core before repro.coord: a module that imports repro.coord
# first runs into the core <-> coord import cycle
from repro.core.errors import RStoreError
from repro.coord import Backoff, SeqLock
from repro.coord.seqlock import mint_token, snapshots
from repro.datapath.ops import WORD, hash64
from repro.graph import BfsProgram, PageRankProgram
from repro.kv.hashkv import RKVStore
from repro.obs import obs_for


def count(cluster, name, /, **labels):
    """The value of counter *name* under exactly *labels*."""
    want = tuple(sorted((k, str(v)) for k, v in labels.items()))
    found = [inst for inst in obs_for(cluster.sim).metrics.series(name)
             if inst.labels == want]
    assert found, f"no counter {name!r} with {labels}"
    return found[0].value


def instruments(registry):
    """Instruments a ``MetricsRegistry`` holds, over every name and label set."""
    return len(registry._instruments)


def count_all(cluster, name):
    """Counter *name* summed over every label set."""
    return obs_for(cluster.sim).metrics.total(name)


def host_count(client, name):
    """A ``host``-labelled counter of *client*'s host."""
    return count(client, name, host=client.nic.host.host_id)


def live_allocations(arena):
    """Reservations an ``Arena`` currently holds."""
    return len(arena._live)


def preferred_mode(selector, op_class):
    """An ``AdaptiveSelector``'s current mode for *op_class*, ``None``
    while the class is still cold."""
    state = selector._classes.get(op_class)
    return None if state is None else state.current


def names_owned(shard_map, names, shard_id):
    """The *names* that *shard_id* owns under *shard_map*, sorted."""
    return sorted(n for n in names if shard_map.shard_of(n) == shard_id)


def scheduled(sim):
    """Queue entries a ``Simulator`` ever pushed, events and bare calls
    alike: every ``(when, seq)`` key it handed out."""
    return sim._seq


def next_event_at(sim):
    """When the next queued entry runs, ``inf`` on an empty queue."""
    return sim._queue[0][0] if sim._queue else float("inf")


def waiting(resource):
    """Requests queued on a ``Resource`` for a free slot."""
    return len(resource._waiting)


def queued(cq):
    """Completions waiting in a ``CompletionQueue``."""
    return len(cq._entries)


def stored(store):
    """Items waiting in a ``Store``."""
    return len(store._items)


def holders(resource):
    """Slots of a ``Resource`` currently held."""
    return len(resource._users)


def rpc_connected(client):
    """Whether an ``RpcClient`` holds an open channel."""
    return client._channel is not None and not client._channel.closed


def sync_cas(mapping, offset, expected, desired):
    """A compare-and-swap that waits for its old value (generator), the
    way ``faa`` does: production submits CAS only through ``cas_async``
    and ``IoBatch.cas``."""
    fut = yield from mapping.cas_async(offset, expected, desired)
    return (yield from fut.wait())


def busy_cores(cpu):
    """Cores of a ``Cpu`` currently executing work."""
    return holders(cpu._res)


def runnable_backlog(cpu):
    """Work items waiting for a free core of a ``Cpu``."""
    return waiting(cpu._res)


def snapshot_bytes(snap):
    """The bytes a ``Buffer.snapshot`` holds (a short one is plain bytes)."""
    return snap if isinstance(snap, bytes) else b"".join(snap.parts)


def materialized_bytes(buffer):
    """Bytes an RDMA ``Buffer`` has backed with real memory so far."""
    return sum(map(len, buffer._blocks.values()))


def same_home(slots, count):
    """*count* keys whose chains start at one slot of a *slots* table."""
    home = hash64(b"key-0") % slots
    keys = (b"key-%d" % i for i in range(10_000))
    return [key for key in keys if hash64(key) % slots == home][:count]


def write_hint(store, key):
    """The ``(slot index, version)`` an ``RKVStore`` handle's client
    will try *key*'s next get or write at first, ``None`` when it has
    none."""
    return store._hints.get(key)


def resolution_order(cluster, futures):
    """Watch *futures* until every one has resolved (generator): answers
    their indices in the order they resolved, each with the simulated
    time it did.  Start it before any can resolve (right after the
    flush)."""
    sim, order = cluster.sim, []

    def watch(index, future):
        try:
            yield from future.wait()
        except RStoreError:
            pass  # failed is resolved too
        order.append((index, sim.now))

    yield sim.all_of([cluster.spawn(watch(index, future))
                      for index, future in enumerate(futures)])
    return order


def record(client, name, body_size, offset=0, create=False, size=None):
    """A ``SeqLock`` view over the record at *offset* of region *name*
    (generator), mapped by *client*.  With *create* the region is
    allocated first, unreplicated and striped as the cluster's config
    says: *size* bytes (default: just the record), so a record larger
    than a stripe, or at *offset* across a stripe boundary, spans
    servers."""
    if create:
        yield from client.alloc(name, size or offset + WORD + body_size,
                                replication=1)
    mapping = yield from client.map(name)
    return SeqLock(mapping, offset, body_size)


def read_record(record):
    """One validated ``(version, body)`` of *record* (generator): the
    ``snapshots`` read, rerun while a writer races it."""
    for _try in range(64):
        (snapshot,) = yield from snapshots(record.mapping, (record.offset,),
                                           record.record_size)
        if snapshot is not None:
            return snapshot
    raise AssertionError(f"record at {record.offset} kept changing")


def write_record(record, body):
    """Publish *body* into *record* (generator): read the version, lock
    it with a fresh token (``mint_token``), publish version + 2, backing
    off and starting over when the lock is lost.  Answers the version
    published."""
    client = record.mapping.client
    backoff = Backoff.for_client(client, f"seqlock-{record.mapping.name}")
    while True:
        version, _body = yield from read_record(record)
        token = mint_token(client)
        if (yield from record.try_lock(version, token)):
            yield from record.publish(token, body, version + 2)
            return version + 2
        yield from backoff.pause()


def pagerank(iterations):
    """A ``PageRankProgram`` of *iterations* supersteps instead of the
    ten every production run takes: a test sizes a run to its check."""
    program = PageRankProgram()
    program.iterations = iterations
    return program


def bfs_from(source):
    """A ``BfsProgram`` counting hops from *source* instead of vertex 0."""
    program = BfsProgram()
    program.source = source
    return program


def create_table(client, name, *, path_policy, **shape):
    """``RKVStore.create`` plus a handle of *client* on the new table
    under *path_policy* (generator): the way production opens a table."""
    store = yield from RKVStore.create(client, name, **shape)
    return RKVStore(client, name, store.mapping, store.slots,
                    store.key_size, store.value_size, path_policy)
