"""Kernel corner cases beyond the basics."""

import math

import pytest

from repro.simnet.cpu import Cpu
from repro.simnet.kernel import (
    SimulationError,
    Simulator,
)


@pytest.mark.parametrize("schedule", [
    lambda sim: sim.call_later(math.nan, print),
    lambda sim: sim.timeout(math.nan),
    lambda sim: next(Cpu(sim, 8, 3.2e9).run(math.nan)),
], ids=["call_later", "timeout", "cpu.run"])
def test_a_nan_delay_is_refused(schedule):
    # `nan < 0` is false: a NaN entry at the heap head would end run()
    # with nothing run (`nan <= deadline` is false too), or set the
    # clock to NaN when it ran
    sim = Simulator()
    with pytest.raises(ValueError):
        schedule(sim)
    fired = []
    for delay in (1.0, 2.0, 3.0):
        sim.call_later(delay, fired.append, delay)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]
    assert sim.now == 3.0


def test_all_of_fails_fast_on_first_failure():
    sim = Simulator()
    caught = []

    def failer():
        yield sim.timeout(1.0)
        raise RuntimeError("early failure")

    def proc():
        slow = sim.timeout(10.0)
        bad = sim.process(failer())
        try:
            yield sim.all_of([bad, slow])
        except RuntimeError as exc:
            caught.append((str(exc), sim.now))

    sim.process(proc())
    sim.run()
    assert caught == [("early failure", 1.0)]


def test_any_of_with_failure_first_propagates():
    sim = Simulator()

    def failer():
        yield sim.timeout(0.5)
        raise KeyError("lost")

    def proc():
        ok = sim.timeout(2.0)
        bad = sim.process(failer())
        with pytest.raises(KeyError):
            yield sim.any_of([bad, ok])
        return sim.now

    assert sim.run(until=sim.process(proc())) == 0.5


def test_nested_conditions():
    sim = Simulator()

    def proc():
        inner = sim.all_of([sim.timeout(1.0), sim.timeout(2.0)])
        outer = yield sim.any_of([inner, sim.timeout(10.0)])
        return sim.now

    assert sim.run(until=sim.process(proc())) == 2.0


def test_process_value_available_after_completion():
    sim = Simulator()

    def quick():
        yield sim.timeout(1.0)
        return {"answer": 42}

    proc = sim.process(quick())
    sim.run()
    assert proc.triggered and proc._ok
    assert proc.value == {"answer": 42}


def test_zero_delay_timeouts_preserve_order():
    sim = Simulator()
    order = []

    def maker(tag):
        def proc():
            yield sim.timeout(0)
            order.append(tag)
        return proc

    for tag in range(10):
        sim.process(maker(tag)())
    sim.run()
    assert order == list(range(10))


def test_event_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_fail_requires_an_exception():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_simulation_time_never_goes_backwards():
    sim = Simulator()
    stamps = []

    def proc(delay):
        yield sim.timeout(delay)
        stamps.append(sim.now)

    import random

    rng = random.Random(3)
    for _ in range(100):
        sim.process(proc(rng.uniform(0, 10)))
    sim.run()
    assert stamps == sorted(stamps)
