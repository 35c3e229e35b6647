"""The per-verb kernel event budget.

One blocking 128 B remote op on an idle two-host cluster costs an exact
number of kernel queue entries; DESIGN.md's budget table lists what each
one is.  A relay hop that creeps back in (an event that only forwards
to the next callback at the same simulated instant) fails here, not in
a benchmark three PRs later.
"""

from repro.cluster import build_cluster

#: NIC and wire entries every one-sided verb pays: launch, the request's
#: ingress claim and delivery, the remote DMA, the response's ingress
#: claim and delivery, the completion.
_NIC_PATH = 7
#: the client's wake-ups: the CQ dispatcher, then the waiting future
_CLIENT_WAKEUPS = 2


def _costs():
    cluster = build_cluster(num_machines=2, server_hosts=[0])
    client = cluster.client(1)  # host 1 holds no memory: every op is remote
    sim = cluster.sim
    costs = {}

    def measured(name, op):
        before, started = sim.events_processed, sim.now
        yield from op
        costs[name] = sim.events_processed - before
        assert 2e-6 < sim.now - started < 5e-6  # one round trip, no queueing

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

    cluster.run_app(app())
    return costs


def test_one_blocking_remote_op_costs_a_pinned_number_of_kernel_events():
    assert _costs() == {
        # + the client's issue overhead, one CPU charge
        "read": 1 + _NIC_PATH + _CLIENT_WAKEUPS,
        # + the staging copy of the payload and the issue overhead
        "write": 2 + _NIC_PATH + _CLIENT_WAKEUPS,
        # atomics carry no payload and pay no issue overhead
        "faa": _NIC_PATH + _CLIENT_WAKEUPS,
    }
