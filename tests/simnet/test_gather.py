"""``Simulator.gather``: scatter, then wait for *every* child to settle.

It is what a fan-out with a rollback needs and ``all_of`` is not: a
caller that undoes a half-done round must see everything the round did,
so a failing child may neither return early past a slow sibling nor
crash the kernel while nobody is waiting on it yet.
"""

import pytest

from repro.simnet.kernel import Simulator


def _after(sim, delay, value=None, fail=None, log=None):
    yield sim.timeout(delay)
    if log is not None:
        log.append((sim.now, value))
    if fail is not None:
        raise fail
    return value


def _run(sim, generator):
    return sim.run(sim.process(generator))


def test_results_come_back_in_declaration_order_at_the_slowest_childs_time():
    sim = Simulator()

    def parent():
        return (yield from sim.gather(
            _after(sim, delay, value)
            for delay, value in ((3.0, "slow"), (1.0, "fast"), (2.0, "mid"))
        ))

    assert _run(sim, parent()) == ["slow", "fast", "mid"]
    assert sim.now == 3.0  # the slowest child, not the sum


def test_a_failing_child_waits_for_the_slow_sibling_declared_before_it():
    sim = Simulator()
    settled = []

    def parent():
        with pytest.raises(KeyError, match="boom"):
            yield from sim.gather([
                _after(sim, 5.0, "slow", log=settled),
                _after(sim, 1.0, "bad", fail=KeyError("boom"), log=settled),
            ])
        return sim.now

    # the failure at t=1 has no waiter yet: it must not escape step(),
    # and the round is not over until the slow child has landed
    assert _run(sim, parent()) == 5.0
    assert settled == [(1.0, "bad"), (5.0, "slow")]


def test_a_failing_child_waits_for_the_slow_sibling_declared_after_it():
    sim = Simulator()
    settled = []

    def parent():
        with pytest.raises(KeyError):
            yield from sim.gather([
                _after(sim, 1.0, "bad", fail=KeyError("boom"), log=settled),
                _after(sim, 5.0, "slow", log=settled),
            ])
        return sim.now

    assert _run(sim, parent()) == 5.0
    assert [value for _when, value in settled] == ["bad", "slow"]


def test_two_failures_raise_the_first_in_declaration_order():
    sim = Simulator()

    def parent():
        with pytest.raises(ValueError, match="declared first"):
            yield from sim.gather([
                _after(sim, 1.0),
                _after(sim, 4.0, fail=ValueError("declared first")),
                _after(sim, 2.0, fail=KeyError("failed first")),
            ])
        return sim.now

    assert _run(sim, parent()) == 4.0
    sim.run()  # nothing undelivered is left behind to crash a later step


def test_empty_list_returns_an_empty_list_at_the_same_instant():
    sim = Simulator()

    def parent():
        yield sim.timeout(3.0)
        return (yield from sim.gather([]))

    assert _run(sim, parent()) == []
    assert sim.now == 3.0
    assert sim.processes_spawned == 1


def test_one_generator_takes_the_same_path():
    sim = Simulator()

    def parent():
        return (yield from sim.gather([_after(sim, 2.0, "only")]))

    assert _run(sim, parent()) == ["only"]
    assert sim.now == 2.0
    assert sim.processes_spawned == 2  # no inline shortcut for one child


def test_a_lone_failure_reaches_the_caller_not_the_kernel():
    sim = Simulator()

    def parent():
        try:
            yield from sim.gather([_after(sim, 1.0, fail=KeyError("x"))])
        except KeyError:
            return "caught"

    assert _run(sim, parent()) == "caught"


def test_children_run_concurrently_from_the_same_instant():
    sim = Simulator()
    started = []

    def child(name):
        started.append((sim.now, name))
        yield sim.timeout(1.0)
        return name

    def parent():
        yield sim.timeout(7.0)
        return (yield from sim.gather(child(n) for n in "abc"))

    assert _run(sim, parent()) == ["a", "b", "c"]
    assert started == [(7.0, "a"), (7.0, "b"), (7.0, "c")]
    assert sim.now == 8.0
