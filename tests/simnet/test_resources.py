"""Unit tests for Resource and Store."""

import pytest

from repro.simnet.kernel import SimulationError, Simulator
from repro.simnet.resources import Resource, Store
from tests.probes import waiting


def test_resource_grants_up_to_capacity_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    assert r1.triggered and r2.triggered
    assert not r3.triggered
    assert res.count == 2
    assert waiting(res) == 1


def test_resource_release_wakes_fifo_order():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def user(tag, hold):
        req = res.request()
        yield req
        order.append(("acquire", tag, sim.now))
        yield sim.timeout(hold)
        res.release(req)

    sim.process(user("a", 1.0))
    sim.process(user("b", 1.0))
    sim.process(user("c", 1.0))
    sim.run()
    assert order == [
        ("acquire", "a", 0.0),
        ("acquire", "b", 1.0),
        ("acquire", "c", 2.0),
    ]


def test_resource_release_unheld_request_rejected():
    sim = Simulator()
    res = Resource(sim)
    req = res.request()
    res.release(req)
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_occupy_serializes():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    finish = []

    def worker():
        yield from res.occupy(2.0)
        finish.append(sim.now)

    sim.process(worker())
    sim.process(worker())
    sim.run()
    assert finish == [2.0, 4.0]


def test_resource_capacity_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_store_put_then_get():
    sim = Simulator()
    store = Store(sim)
    store.put("x")
    got = []

    def getter():
        item = yield store.get()
        got.append(item)

    sim.process(getter())
    sim.run()
    assert got == ["x"]


def test_store_get_blocks_until_put():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter():
        item = yield store.get()
        got.append((sim.now, item))

    def putter():
        yield sim.timeout(2.0)
        store.put("late")

    sim.process(getter())
    sim.process(putter())
    sim.run()
    assert got == [(2.0, "late")]


def test_store_fifo_ordering():
    sim = Simulator()
    store = Store(sim)
    for i in range(5):
        store.put(i)
    got = []

    def getter():
        for _ in range(5):
            item = yield store.get()
            got.append(item)

    sim.process(getter())
    sim.run()
    assert got == [0, 1, 2, 3, 4]


def test_store_len_and_items():
    sim = Simulator()
    store = Store(sim)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert [store.get().value for _ in range(2)] == [1, 2]
    assert len(store) == 0


def test_store_hands_item_directly_to_waiting_getter():
    sim = Simulator()
    store = Store(sim)
    got = []

    def getter():
        item = yield store.get()
        got.append(item)

    sim.process(getter())
    sim.run()  # getter now parked
    store.put("direct")
    sim.run()
    assert got == ["direct"]
    assert len(store) == 0
