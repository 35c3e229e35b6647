"""RDMA message-channel edge cases."""

import pytest

from repro.rpc.channel import (
    MSG_SIZE,
    ChannelClosed,
    MessageTooLarge,
    RdmaMsgChannel,
)
from repro.rpc.endpoint import RpcServer

from tests.rdma.helpers import make_world, run


def echo_server(world):
    server = RpcServer(world.sim, world.nics[1], world.cm, "echo")

    def echo(payload):
        yield world.sim.timeout(0)
        return payload

    server.register("echo", echo)
    return server


def test_channel_roundtrip_objects():
    world = make_world()

    def scenario():
        yield from echo_server(world).start()
        channel = yield from RdmaMsgChannel.connect(
            world.cm, world.nics[0], 1, "echo"
        )
        yield from channel.send({"structured": [1, 2, 3]})
        request = None  # the server consumed it; use recv on our side
        return True

    assert run(world, scenario())


def test_message_too_large_rejected():
    world = make_world()

    def scenario():
        yield from echo_server(world).start()
        channel = yield from RdmaMsgChannel.connect(
            world.cm, world.nics[0], 1, "echo"
        )
        with pytest.raises(MessageTooLarge):
            yield from channel.send(b"x" * MSG_SIZE)

    run(world, scenario())


def test_closed_channel_rejects_send():
    world = make_world()

    def scenario():
        yield from echo_server(world).start()
        channel = yield from RdmaMsgChannel.connect(
            world.cm, world.nics[0], 1, "echo"
        )
        channel.close()
        with pytest.raises(ChannelClosed):
            yield from channel.send(b"late")

    run(world, scenario())


def test_peer_death_surfaces_as_channel_closed():
    world = make_world()

    def scenario():
        yield from echo_server(world).start()
        channel = yield from RdmaMsgChannel.connect(
            world.cm, world.nics[0], 1, "echo"
        )
        world.nics[1].kill()
        with pytest.raises(ChannelClosed):
            yield from channel.send(b"into the void")
        assert channel.closed

    run(world, scenario())


def test_sends_are_serialized_by_the_lock():
    from repro.rpc.message import RpcRequest

    world = make_world()

    def scenario():
        server = echo_server(world)
        yield from server.start()
        channel = yield from RdmaMsgChannel.connect(
            world.cm, world.nics[0], 1, "echo"
        )
        procs = [
            world.sim.process(
                channel.send(RpcRequest(call_id=i, method="echo",
                                        args=(i,)))
            )
            for i in range(8)
        ]
        yield world.sim.all_of(procs)
        # drain the responses so the server isn't blocked mid-send
        for _ in range(8):
            yield from channel.recv()
        return server.requests_served

    run(world, scenario())
