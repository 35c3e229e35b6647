"""Unit tests for the discrete-event kernel."""

import pytest

from repro.simnet.kernel import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(1.5)
    sim.run()
    assert sim.now == 1.5


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_until_time_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=3.0)
    assert sim.now == 3.0


def test_run_until_time_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.timeout(5.0).add_callback(lambda e: fired.append(sim.now))
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert fired == []
    sim.run()
    assert fired == [5.0]


def test_process_sequences_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(1.0)
        trace.append(sim.now)
        yield sim.timeout(2.0)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 1.0, 3.0]


def test_process_return_value_via_run_until():
    sim = Simulator()

    def proc():
        yield sim.timeout(1.0)
        return 42

    result = sim.run(until=sim.process(proc()))
    assert result == 42


def test_yield_from_subprocess_propagates_value():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "child-result"

    def parent():
        value = yield from child()
        return value + "!"

    assert sim.run(until=sim.process(parent())) == "child-result!"


def test_waiting_on_spawned_process():
    sim = Simulator()

    def child():
        yield sim.timeout(2.0)
        return 7

    def parent():
        proc = sim.process(child())
        value = yield proc
        return value * 2

    assert sim.run(until=sim.process(parent())) == 14


def test_waiting_on_already_finished_process():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "done"

    def parent():
        proc = sim.process(child())
        yield sim.timeout(5.0)
        # child finished long ago; waiting must still return its value
        value = yield proc
        return value

    assert sim.run(until=sim.process(parent())) == "done"
    assert sim.now == 5.0


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    gate = sim.event()
    log = []

    def waiter():
        value = yield gate
        log.append((sim.now, value))

    def opener():
        yield sim.timeout(3.0)
        gate.succeed("open")

    sim.process(waiter())
    sim.process(opener())
    sim.run()
    assert log == [(3.0, "open")]


def test_event_cannot_trigger_twice():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_failed_event_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()
    caught = []

    def waiter():
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    sim.process(waiter())
    gate.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_surfaces_from_run():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise ValueError("exploded")

    sim.process(bad())
    with pytest.raises(ValueError, match="exploded"):
        sim.run()


def test_run_until_process_reraises_its_failure():
    sim = Simulator()

    def bad():
        yield sim.timeout(1.0)
        raise KeyError("gone")

    proc = sim.process(bad())
    with pytest.raises(KeyError):
        sim.run(until=proc)


def test_same_time_events_run_fifo():
    sim = Simulator()
    order = []

    def make(tag):
        def proc():
            yield sim.timeout(1.0)
            order.append(tag)

        return proc

    for tag in "abcde":
        sim.process(make(tag)())
    sim.run()
    assert order == list("abcde")


def test_all_of_waits_for_every_event():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(3.0, value="b")
        values = yield sim.all_of([t1, t2])
        return (sim.now, values)

    when, values = sim.run(until=sim.process(proc()))
    assert when == 3.0
    assert values == ["a", "b"]


def test_any_of_returns_at_first_event():
    sim = Simulator()

    def proc():
        t1 = sim.timeout(5.0, value="slow")
        t2 = sim.timeout(1.0, value="fast")
        values = yield sim.any_of([t1, t2])
        return (sim.now, values)

    when, values = sim.run(until=sim.process(proc()))
    assert when == 1.0
    assert values == ["fast"]


def test_all_of_empty_list_triggers_immediately():
    sim = Simulator()

    def proc():
        values = yield sim.all_of([])
        return values

    assert sim.run(until=sim.process(proc())) == []


def test_yielding_non_event_is_an_error():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(SimulationError, match="yield"):
        sim.run()


def test_deadlock_detected_when_running_until_unreachable_event():
    sim = Simulator()

    def stuck():
        yield sim.event()  # nobody will ever trigger this

    proc = sim.process(stuck())
    with pytest.raises(SimulationError, match="deadlock"):
        sim.run(until=proc)


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def worker(i):
        yield sim.timeout(i * 0.001)
        done.append(i)

    for i in range(500):
        sim.process(worker(i))
    sim.run()
    assert sorted(done) == list(range(500))
