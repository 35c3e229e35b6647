"""A CQ consumer keeps the queue positions of a dispatcher process.

``CompletionQueue.consume(fn)`` replaces a process that loops on
``next_completion()`` and calls ``fn``: every call must land on the
kernel queue exactly where that process would have resumed, so the
global order of everything else (same-instant events, other pushes,
CQ overrun at ``depth``) is the same entry for entry.  The reference
process lives here, not in ``src/``.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdma.cq import CompletionQueue, WorkCompletion
from repro.rdma.types import Opcode, WcStatus
from repro.simnet.kernel import Simulator

#: what a step (or a consumer call) does: push a completion, or start
#: a zero-delay timer or timeout that records the turn it runs in
_ACTIONS = st.lists(st.sampled_from(("push", "call", "timeout")),
                    max_size=5)
#: steps at a few shared instants: several steps per instant, several
#: pushes per step
_STEPS = st.lists(st.tuples(st.sampled_from((0.0, 1e-6, 2e-6)), _ACTIONS),
                  min_size=1, max_size=10)


class _Qp:
    """Records the overrun the CQ reports to a completion's QP."""

    def __init__(self, sim, log):
        self.sim, self.log = sim, log

    def set_error(self, reason):
        self.log.append(("overrun", self.sim.now))


def _run(steps, reactions, depth, consumer):
    sim = Simulator()
    cq = CompletionQueue(sim, depth=depth)
    log, ids, from_steps = [], itertools.count(), set()
    qp = _Qp(sim, log)

    def act(action, origin):
        n = next(ids)
        if action == "push":
            if origin == "step":
                from_steps.add(n)
            cq.push(WorkCompletion(wr_id=n, status=WcStatus.SUCCESS,
                                   opcode=Opcode.RDMA_READ, qp=qp))
        elif action == "call":
            sim.call_later(0.0, log.append, ("call", n, sim.now))
        else:
            sim.timeout(0.0).add_callback(
                lambda _event: log.append(("timeout", n, sim.now)))

    def on_completion(wc):
        log.append(("wc", wc.wr_id, sim.now))
        if wc.wr_id in from_steps:  # what a step pushed reacts, once
            for action in reactions[wc.wr_id % len(reactions)]:
                act(action, "consumer")

    def step(index, actions):
        log.append(("step", index, sim.now))
        for action in actions:
            act(action, "step")

    if consumer:
        cq.consume(on_completion)
    else:
        def dispatcher():
            while True:
                on_completion((yield cq.next_completion()))

        sim.process(dispatcher())
    for index, (at, actions) in enumerate(steps):
        sim.call_later(at, step, index, actions)
    sim.run()
    return log, cq.dropped, sim.events_processed


@settings(max_examples=200, deadline=None)
@given(steps=_STEPS, reactions=st.lists(_ACTIONS, min_size=1, max_size=4),
       depth=st.sampled_from((1, 2, 3, 4096)))
# three pushes in one step against a CQ of depth 1: the first is being
# delivered, the second queues, the third overruns
@example(steps=[(0.0, ["push", "push", "push"])], reactions=[[]], depth=1)
def test_consume_keeps_the_dispatcher_processs_order(steps, reactions,
                                                     depth):
    got = _run(steps, reactions, depth, consumer=True)
    want = _run(steps, reactions, depth, consumer=False)
    log, dropped, entries = got
    assert log == want[0]
    assert dropped == want[1]
    # the same entries but the dispatcher's start
    assert entries == want[2] - 1


def test_one_delivery_is_pending_and_overrun_counts_the_rest():
    log, dropped, _entries = _run([(0.0, ["push"] * 4)], [[]], 2,
                                  consumer=True)
    # #0 is in flight, #1 and #2 fill the queue, #3 overruns it
    assert dropped == 1
    assert [entry[:2] for entry in log] == [
        ("step", 0), ("overrun", 0.0), ("wc", 0), ("wc", 1), ("wc", 2)]
