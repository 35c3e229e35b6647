"""RPC endpoint edge cases: pipelining, timeouts, late responses."""

import pytest

from repro.rpc.endpoint import (
    RpcClient,
    RpcError,
    RpcRemoteError,
    RpcServer,
    RpcTimeout,
)

from tests.probes import rpc_connected
from tests.rdma.helpers import make_world, run


def setup(world, handlers):
    server = RpcServer(world.sim, world.nics[1], world.cm, "edge")
    for name, handler in handlers.items():
        server.register(name, handler)

    def connect():
        yield from server.start()
        client = RpcClient(world.sim, world.nics[0], world.cm)
        yield from client.connect(1, "edge")
        return server, client

    return connect


def test_slow_and_fast_calls_interleave():
    world = make_world()
    sim = world.sim

    def slow():
        yield sim.timeout(1e-3)
        return "slow"

    def fast():
        yield sim.timeout(0)
        return "fast"

    def scenario():
        _server, client = yield from setup(
            world, {"slow": slow, "fast": fast}
        )()
        arrival = []

        def call(method):
            result = yield from client.call(method)
            arrival.append((result, sim.now))

        p1 = sim.process(call("slow"))
        p2 = sim.process(call("fast"))
        yield sim.all_of([p1, p2])
        return arrival

    arrival = run(world, scenario())
    # the fast response overtakes the slow one: no head-of-line blocking
    assert arrival[0][0] == "fast"
    assert arrival[1][0] == "slow"


def test_timeout_fires_and_late_response_is_dropped():
    world = make_world()
    sim = world.sim

    def dawdle():
        yield sim.timeout(5e-3)
        return "finally"

    def scenario():
        server, client = yield from setup(world, {"dawdle": dawdle})()
        with pytest.raises(RpcTimeout):
            yield from client.call("dawdle", timeout=1e-3)
        # let the late response arrive; it must be ignored quietly and
        # the connection must remain usable
        yield sim.timeout(10e-3)
        assert rpc_connected(client)
        result = yield from client.call("dawdle", timeout=1.0)
        return result

    assert run(world, scenario()) == "finally"


def test_a_call_cut_by_a_dying_server_leaves_no_deadline_queued():
    world = make_world()
    sim = world.sim
    server_box = []

    def die():
        # the server fails while the call is in its hands: the client's
        # dispatcher fails the future, and no reply will ever come
        server_box[0].stop("killed mid-call")
        yield sim.event()

    def scenario():
        server, client = yield from setup(world, {"die": die})()
        server_box.append(server)
        yield sim.timeout(1e-3)  # the connection's own setup settles
        queued = len(sim._queue)
        with pytest.raises(RpcError) as err:
            yield from client.call("die", timeout=2.0)
        assert not isinstance(err.value, RpcTimeout)
        yield sim.timeout(1e-3)  # the teardown's completions settle
        return queued, len(sim._queue), sim.now

    queued, after, now = run(world, scenario())
    # the 2 s deadline went with the call
    assert after == queued and now < 0.1
    sim.run()
    assert sim.now < 0.1


def test_duplicate_handler_registration_rejected():
    world = make_world()
    server = RpcServer(world.sim, world.nics[1], world.cm, "dup")

    def h():
        yield world.sim.timeout(0)

    server.register("x", h)
    with pytest.raises(ValueError, match="already registered"):
        server.register("x", h)


def test_many_pipelined_calls_complete_in_order_of_completion():
    world = make_world()
    sim = world.sim

    def delay(ms):
        yield sim.timeout(ms * 1e-3)
        return ms

    def scenario():
        _server, client = yield from setup(world, {"delay": delay})()
        done = []

        def call(ms):
            result = yield from client.call("delay", ms)
            done.append(result)

        procs = [sim.process(call(ms)) for ms in (5, 1, 3, 2, 4)]
        yield sim.all_of(procs)
        return done

    assert run(world, scenario()) == [1, 2, 3, 4, 5]


def test_calls_made_counter():
    world = make_world()
    sim = world.sim

    def noop():
        yield sim.timeout(0)

    def scenario():
        _server, client = yield from setup(world, {"noop": noop})()
        for _ in range(4):
            yield from client.call("noop")
        return client.calls_made

    assert run(world, scenario()) == 4


def test_reply_over_the_channel_limit_is_a_remote_error():
    # the handler succeeds but its result cannot ride the channel: the
    # caller must get a typed remote error — at the parent the
    # MessageTooLarge escaped the handler process and killed the kernel
    world = make_world()
    sim = world.sim

    def huge():
        yield sim.timeout(0)
        return b"x" * (70 * 1024)

    def small():
        yield sim.timeout(0)
        return "ok"

    def scenario():
        _server, client = yield from setup(
            world, {"huge": huge, "small": small})()
        with pytest.raises(RpcRemoteError) as err:
            yield from client.call("huge")
        assert err.value.error_type == "MessageTooLarge"
        # the simulation and the connection both survive
        return (yield from client.call("small"))

    assert run(world, scenario()) == "ok"
