"""Bare-callable timers and the relay hops they replaced.

``Simulator.call_later`` queues a callable with no ``Event`` around it;
the wire path's delivery callback, a new process's first resume and a
free-core CPU grant all ride on it (or on nothing at all).  What must
not move is *when* things happen and in which same-instant order — and
a timer withdrawn with ``Simulator.cancel`` must leave both as if it
had never been pushed.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet.config import KiB, NetworkConfig
from repro.simnet.cpu import Cpu
from repro.simnet.kernel import SimulationError, Simulator
from repro.simnet.topology import Network
from tests.probes import busy_cores, next_event_at, runnable_backlog, scheduled


class TestCallLater:
    def test_runs_at_its_instant_with_its_arguments(self):
        sim = Simulator()
        seen = []
        sim.call_later(2.0, lambda *args: seen.append((sim.now, args)), "a", 1)
        sim.call_later(0.5, lambda: seen.append((sim.now, ())))
        sim.run()
        assert seen == [(0.5, ()), (2.0, ("a", 1))]

    def test_fifo_with_events_at_the_same_instant(self):
        sim = Simulator()
        order = []
        sim.call_later(1.0, order.append, "call-1")
        sim.timeout(1.0).add_callback(lambda _e: order.append("timeout-2"))
        sim.call_later(1.0, order.append, "call-3")
        fired = sim.event()
        fired.add_callback(lambda _e: order.append("event-0"))
        fired.succeed()  # scheduled for *now*, ahead of everything at t=1
        sim.call_later(1.0, order.append, "call-4")
        sim.run()
        assert order == ["event-0", "call-1", "timeout-2", "call-3", "call-4"]

    def test_zero_delay_runs_after_what_is_already_queued_for_now(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.call_later(0.0, order.append, "nested")

        sim.call_later(0.0, first)
        sim.call_later(0.0, order.append, "second")
        sim.run()
        assert order == ["first", "second", "nested"]
        assert sim.now == 0.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.call_later(-1e-9, lambda: None)
        assert next_event_at(sim) == float("inf")

    def test_exception_surfaces_from_run(self):
        sim = Simulator()
        later = []

        def boom():
            raise RuntimeError("boom")

        sim.call_later(1.0, boom)
        sim.call_later(2.0, later.append, "still queued")
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        assert sim.now == 1.0 and later == []
        sim.run()  # the kernel is still usable past the failed entry
        assert later == ["still queued"]

    def test_deadline_and_peek_see_bare_entries(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.0, seen.append, 1)
        sim.call_later(3.0, seen.append, 3)
        assert next_event_at(sim) == 1.0
        sim.run(until=2.0)
        assert seen == [1] and sim.now == 2.0
        assert next_event_at(sim) == 3.0
        sim.run(until=3.0)  # an entry *at* the deadline runs
        assert seen == [1, 3]

    def test_run_until_event_steps_through_bare_entries(self):
        sim = Simulator()
        done = sim.event()
        sim.call_later(1.0, sim.call_later, 1.0, done.succeed, "value")
        assert sim.run(until=done) == "value"
        assert sim.now == 2.0

    def test_run_until_event_deadlocks_loudly_when_only_bare_entries_ran(self):
        sim = Simulator()
        sim.call_later(1.0, lambda: None)
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(until=sim.event())

    def test_late_callback_on_a_processed_event_gets_the_event(self):
        sim = Simulator()
        failed = sim.event()
        failed.defused = True
        failed.fail(KeyError("late"))
        sim.run()
        seen = []
        failed.add_callback(seen.append)
        sim.timeout(0.0).add_callback(lambda _e: seen.append("after"))
        sim.run()  # the failure is not re-raised by the late delivery
        assert seen == [failed, "after"]


class TestKernelCounters:
    def test_events_scheduled_processed_and_processes_spawned(self):
        sim = Simulator()
        assert (scheduled(sim), sim.events_processed,
                sim.processes_spawned) == (0, 0, 0)

        def ticker():
            for _ in range(3):
                yield sim.timeout(1.0)

        sim.process(ticker())
        sim.call_later(10.0, lambda: None)
        # the start-up call and the bare timer are queued, nothing ran
        assert (scheduled(sim), sim.events_processed) == (2, 0)
        sim.run(until=5.0)
        # start-up + three timeouts + the process's own completion event
        assert (scheduled(sim), sim.events_processed) == (6, 5)
        sim.run()
        assert sim.events_processed == scheduled(sim) == 6
        assert sim.processes_spawned == 1


#: one scheduled entry: its kind, its delay (few values, so ties are
#: common) and when it is withdrawn — never, before the run starts, or
#: by a bare call that fraction of its delay in
_ENTRY = st.tuples(
    st.sampled_from(["timeout", "call", "event"]),
    st.sampled_from([0.0, 0.5, 1.0, 1.5]),
    st.sampled_from([None, "now", 0.0, 0.5]),
)


def _play(schedule, push_withdrawn: bool):
    """Run *schedule*; the withdrawn entries are pushed and cancelled,
    or never pushed at all.  Returns the run's trace and simulator."""
    sim = Simulator()
    trace = []

    def fired(tag):
        trace.append((tag, sim.now))

    for tag, (kind, delay, withdraw) in enumerate(schedule):
        withdrawn = withdraw is not None and kind != "event"
        if withdrawn and not push_withdrawn:
            if withdraw != "now":
                sim.call_later(withdraw * delay, lambda: None)
            continue
        if kind == "timeout":
            handle = sim.timeout(delay)
            handle.add_callback(lambda _e, tag=tag: fired(tag))
        elif kind == "call":
            handle = sim.call_later(delay, fired, tag)
        else:  # an event triggered for *now*: never withdrawn
            event = sim.event()
            event.add_callback(lambda _e, tag=tag: fired(tag))
            event.succeed()
            continue
        if not withdrawn:
            continue
        if withdraw == "now":
            sim.cancel(handle)
        else:  # strictly before it is due: the canceller is queued later
            sim.call_later(withdraw * delay, sim.cancel, handle)
    sim.run()
    return trace, sim


class TestCancel:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(_ENTRY, max_size=24))
    def test_a_withdrawn_timer_is_as_if_never_pushed(self, schedule):
        # a canceller due at the timer's own instant runs after it, so
        # only withdrawals strictly before it are drawn
        schedule = [(kind, delay, withdraw) for kind, delay, withdraw
                    in schedule if withdraw in (None, "now") or delay > 0]
        withdrawn, with_cancel = _play(schedule, push_withdrawn=True)
        never_pushed, without = _play(schedule, push_withdrawn=False)
        assert withdrawn == never_pushed
        assert with_cancel.now == without.now
        assert with_cancel.events_processed == without.events_processed
        assert (scheduled(with_cancel) - scheduled(without)
                == sum(1 for kind, _d, withdraw in schedule
                       if withdraw is not None and kind != "event"))

    def test_counters_after_withdrawals(self):
        sim = Simulator()
        timer = sim.timeout(1.0)
        call = sim.call_later(2.0, lambda: None)
        sim.timeout(3.0)
        sim.cancel(timer)
        sim.cancel(call)
        # pushed three, none ran, two are gone from the queue
        assert (scheduled(sim), sim.events_processed,
                len(sim._queue)) == (3, 0, 1)
        sim.run()
        assert (scheduled(sim), sim.events_processed) == (3, 1)
        assert not timer.processed

    def test_a_drain_ends_at_the_last_live_entry(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.0, seen.append, 1)
        sim.cancel(sim.timeout(5.0))
        sim.cancel(sim.call_later(4.0, seen.append, 4))
        sim.run()
        assert seen == [1] and sim.now == 1.0
        assert next_event_at(sim) == float("inf")

    def test_cancelling_a_fired_or_withdrawn_timer_is_a_no_op(self):
        sim = Simulator()
        fired = sim.timeout(1.0)
        call = sim.call_later(1.0, lambda: None)
        sim.run(until=1.0)
        withdrawn = sim.timeout(1.0)
        sim.cancel(withdrawn)
        survivor = sim.timeout(2.0)
        counts = (scheduled(sim), sim.events_processed)
        for timer in (fired, call, withdrawn):
            sim.cancel(timer)
        assert (scheduled(sim), sim.events_processed) == counts
        assert fired.processed and len(sim._queue) == 1
        sim.run()
        assert survivor.processed and sim.now == 3.0

    def test_a_settled_any_of_leaves_no_deadline_behind(self):
        sim = Simulator()
        reply = sim.event()
        sim.call_later(0.25, reply.succeed, "reply")

        def caller():
            deadline = sim.timeout(2.0)
            yield sim.any_of([reply, deadline])
            sim.cancel(deadline)
            return reply.value

        assert sim.run(until=sim.process(caller())) == "reply"
        assert sim.now == 0.25
        sim.run()
        assert sim.now == 0.25  # the 2 s deadline never held the clock


class TestProcessStartUp:
    def test_start_order_is_spawn_order_among_same_instant_entries(self):
        sim = Simulator()
        order = []

        def proc(tag):
            order.append(tag)
            yield sim.timeout(0.0)

        sim.call_later(0.0, order.append, "before")
        sim.process(proc("a"))
        sim.call_later(0.0, order.append, "between")
        sim.process(proc("b"))
        sim.run()
        assert order == ["before", "a", "between", "b"]


def _deliveries(with_callback: bool, nbytes: int, src: int, dst: int,
                partitioned: bool = False, **config):
    """Send the same traffic through one form of ``transmit_message``;
    return the instants the probe message and a rival were delivered."""
    sim = Simulator()
    net = Network(sim, 4, NetworkConfig(**config))
    if partitioned:
        net.fault_filter = lambda s, d: (s, d) == (src, dst)
    hits = []

    def send(tag, a, b, size):
        if with_callback:
            assert net.transmit_message(
                net.host(a), net.host(b), size, header_bytes=30,
                on_delivered=lambda: hits.append((tag, sim.now))) is None
        else:
            done = net.transmit_message(net.host(a), net.host(b), size,
                                        header_bytes=30)
            done.add_callback(lambda _e: hits.append((tag, sim.now)))

    send("probe", src, dst, nbytes)
    if src != dst:
        # a rival into the same receiver, so ingress is contended
        send("rival", (src + 2) % 4, dst, nbytes)
    sim.run()
    return hits, net.bytes_carried, net.messages_dropped


class TestDeliveryCallback:
    @pytest.mark.parametrize("case", [
        dict(nbytes=128, src=0, dst=1),                       # same rack
        dict(nbytes=128, src=0, dst=1, racks=2),              # cross rack
        dict(nbytes=128, src=2, dst=2),                       # loopback
        dict(nbytes=200 * KiB + 7, src=0, dst=1),             # multi-frame
        dict(nbytes=200 * KiB + 7, src=0, dst=3, racks=2,
             oversubscription=2.0),                           # both
        dict(nbytes=0, src=0, dst=1),                         # empty message
    ], ids=["same-rack", "cross-rack", "loopback", "multi-frame",
            "multi-frame-cross-rack", "empty"])
    def test_same_instant_with_and_without_on_delivered(self, case):
        by_callback = _deliveries(True, **case)
        by_event = _deliveries(False, **case)
        assert by_callback == by_event
        hits = dict(by_callback[0])
        assert hits["probe"] > 0.0

    def test_partitioned_message_is_never_delivered_in_either_form(self):
        for with_callback in (True, False):
            hits, _bytes, dropped = _deliveries(
                with_callback, nbytes=128, src=0, dst=1, partitioned=True)
            assert dropped == 1
            assert [tag for tag, _t in hits] == ["rival"]

    def test_event_form_returns_an_event_that_carries_no_value(self):
        sim = Simulator()
        net = Network(sim, 2)
        done = net.transmit_message(net.host(0), net.host(1), 64)
        assert sim.run(until=done) is None
        assert done.processed

    def test_callback_receives_its_args(self):
        sim = Simulator()
        net = Network(sim, 2)
        seen = []
        net.transmit_message(net.host(0), net.host(1), 64,
                             on_delivered=lambda *a: seen.append(a),
                             args=("wr", 7))
        sim.run()
        assert seen == [("wr", 7)]


class TestCpuGrant:
    def test_free_core_goes_straight_to_the_timeout(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2, copy_bandwidth_Bps=3.2e9)
        samples = []

        def worker():
            yield from cpu.run(1.0)

        def observer():
            # same instant, after both workers started: both cores are
            # taken and nobody is queued
            samples.append((sim.now, busy_cores(cpu), runnable_backlog(cpu)))
            yield sim.timeout(0.5)
            samples.append((sim.now, busy_cores(cpu), runnable_backlog(cpu),
                            cpu.busy_seconds))
            yield sim.timeout(1.0)
            samples.append((sim.now, busy_cores(cpu), runnable_backlog(cpu),
                            cpu.busy_seconds))

        sim.process(worker())
        sim.process(worker())
        sim.process(observer())
        before = sim.events_processed
        sim.run()
        assert samples == [(0.0, 2, 0), (0.5, 2, 0, 0.0), (1.5, 0, 0, 2.0)]
        # per worker: start-up, the timeout, its completion — no grant
        # event; the observer: start-up, two timeouts, its completion
        assert sim.events_processed - before == 2 * 3 + 4

    def test_saturated_cpu_still_queues_fifo(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1, copy_bandwidth_Bps=3.2e9)
        finished = []
        samples = []

        def worker(tag, seconds):
            yield from cpu.run(seconds)
            finished.append((tag, sim.now))

        def observer():
            samples.append((busy_cores(cpu), runnable_backlog(cpu)))
            yield sim.timeout(1.5)
            samples.append((busy_cores(cpu), runnable_backlog(cpu),
                            cpu.busy_seconds))

        for tag, seconds in (("a", 1.0), ("b", 1.0), ("c", 0.25), ("d", 0.5)):
            sim.process(worker(tag, seconds))
        sim.process(observer())
        sim.run()
        # one core: strictly in arrival order, however short the job
        assert finished == [("a", 1.0), ("b", 2.0), ("c", 2.25), ("d", 2.75)]
        assert samples == [(1, 3), (1, 2, 1.0)]
        assert cpu.busy_seconds == 2.75
        assert (busy_cores(cpu), runnable_backlog(cpu)) == (0, 0)

    def test_a_freed_core_goes_to_the_waiter_not_to_a_newcomer(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1, copy_bandwidth_Bps=3.2e9)
        finished = []

        def worker(tag, *delays):
            for delay in delays:
                yield sim.timeout(delay)
            yield from cpu.run(1.0)
            finished.append((tag, sim.now))

        sim.process(worker("holder"))
        sim.process(worker("waiter", 0.5))
        # arrives at t=1.0 right *after* the holder's release (its last
        # timeout was queued later than the holder's): release() already
        # handed the core to the waiter, so the newcomer finds it taken
        sim.process(worker("newcomer", 0.5, 0.5))
        sim.run()
        assert finished == [("holder", 1.0), ("waiter", 2.0),
                            ("newcomer", 3.0)]
