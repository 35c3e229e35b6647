"""Fault schedules are declared before the injector is armed."""

import pytest

from repro.cluster import build_cluster
from repro.simnet.config import KiB
from repro.simnet.faults import FaultInjector

LATE = {
    "fail_wire": lambda f, now: f.fail_wire(1, start=now, duration=1.0),
    "partition": lambda f, now: f.partition([[1], [0, 2, 3]], start=now,
                                            duration=1.0),
    "crash_master": lambda f, now: f.crash_master(at=now + 0.01),
}


@pytest.mark.parametrize("method", sorted(LATE))
def test_a_fault_declared_after_attach_is_refused(method):
    """``attach`` arms wire hooks, the partition filter and master-crash
    processes once, for the windows that exist then.  A later one was
    silently dropped: every write succeeded and nothing was injected.
    Now it raises; heartbeat windows, read live, are still accepted."""
    faults = FaultInjector(seed=3)
    cluster = build_cluster(num_machines=4, faults=faults)
    client = cluster.client(1)

    def app():
        yield from client.alloc("late", 64 * KiB)
        mapping = yield from client.map("late")
        now = cluster.sim.now - faults._t0
        with pytest.raises(RuntimeError, match="before attach"):
            LATE[method](faults, now)
        faults.drop_heartbeats(2, start=now + 5.0, duration=0.1)
        for i in range(5):
            yield from mapping.write(i * 8, b"x" * 8)

    cluster.run_app(app())
    assert all(count == 0 for count in faults.injected.values())
    assert faults.log == []
