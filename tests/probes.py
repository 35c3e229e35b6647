"""What tests read of a component's state, kept out of ``src/repro``.

Production code reports through the metrics registry, not through
per-object accessors, so tests read counters the way ``bench/report.py``
does.  The few other readings tests need live here too, so that nothing
in ``src/repro`` exists for tests alone
(``tests/test_no_test_only_api.py``).
"""

from repro.obs import obs_for


def count(cluster, name, /, **labels):
    """The value of counter *name* under exactly *labels*."""
    instrument = obs_for(cluster.sim).metrics.get(name, **labels)
    assert instrument is not None, f"no counter {name!r} with {labels}"
    return instrument.value


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


def runnable_backlog(cpu):
    """Work items waiting for a free core of a ``Cpu``."""
    return waiting(cpu._res)


def materialized_bytes(buffer):
    """Bytes an RDMA ``Buffer`` has backed with real memory so far."""
    return sum(map(len, buffer._blocks.values()))


def write_hint(store, key):
    """The ``(slot index, version)`` an ``RKVStore`` handle will try
    *key*'s next write at first, ``None`` when it has none."""
    return store._hints.get(key)
