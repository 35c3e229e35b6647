"""Unit tests for the sockets transport."""

import pytest

from repro.net.tcp import TcpError, TcpStack
from repro.simnet.config import MiB, NetworkConfig, us
from repro.simnet.kernel import Simulator
from repro.simnet.topology import Network


def make_stacks(n=2):
    sim = Simulator()
    net = Network(sim, n, NetworkConfig())
    stacks = [TcpStack(sim, host, net) for host in net.hosts]
    return sim, net, stacks


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def connect_pair(sim, stacks, port=9000):
    """Generator: returns (client_sock, server_sock)."""
    listener = stacks[1].listen(port)
    server_box = []

    def server():
        sock = yield from listener.accept()
        server_box.append(sock)

    sim.process(server())
    client = yield from stacks[0].connect(stacks[1], port)
    # let the accept process run
    yield sim.timeout(0)
    return client, server_box[0]


def test_send_recv_roundtrip():
    sim, _net, stacks = make_stacks()

    def scenario():
        client, server = yield from connect_pair(sim, stacks)
        yield from client.send({"op": "put", "key": 7})
        msg = yield from server.recv()
        return msg

    assert run(sim, scenario()) == {"op": "put", "key": 7}


def test_messages_arrive_in_order():
    sim, _net, stacks = make_stacks()

    def scenario():
        client, server = yield from connect_pair(sim, stacks)
        for i in range(20):
            yield from client.send(i)
        out = []
        for _ in range(20):
            out.append((yield from server.recv()))
        return out

    assert run(sim, scenario()) == list(range(20))


def test_connect_refused_without_listener():
    sim, _net, stacks = make_stacks()

    def scenario():
        with pytest.raises(TcpError, match="refused"):
            yield from stacks[0].connect(stacks[1], 1234)

    run(sim, scenario())


def test_connect_to_dead_host_fails():
    sim, _net, stacks = make_stacks()
    stacks[1].kill()

    def scenario():
        with pytest.raises(TcpError, match="unreachable"):
            yield from stacks[0].connect(stacks[1], 1234)

    run(sim, scenario())


def test_duplicate_bind_rejected():
    _sim, _net, stacks = make_stacks()
    stacks[0].listen(80)
    with pytest.raises(TcpError, match="already bound"):
        stacks[0].listen(80)


def test_small_message_latency_slower_than_rdma():
    """Kernel-stack costs put small messages well above ~2 us."""
    sim, _net, stacks = make_stacks()

    def scenario():
        client, server = yield from connect_pair(sim, stacks)
        t0 = sim.now
        yield from client.send(b"x" * 64)
        yield from server.recv()
        return sim.now - t0

    latency = run(sim, scenario())
    assert latency > us(10)


def test_send_charges_both_cpus():
    sim, net, stacks = make_stacks()

    def scenario():
        client, server = yield from connect_pair(sim, stacks)
        yield from client.send(b"y" * (1 * MiB), wire_size=1 * MiB)
        yield from server.recv()

    run(sim, scenario())
    assert net.host(0).cpu.busy_seconds > 0
    assert net.host(1).cpu.busy_seconds > 0


def test_wire_size_override_scales_time():
    sim, _net, stacks = make_stacks()

    def scenario():
        client, server = yield from connect_pair(sim, stacks)
        t0 = sim.now
        yield from client.send(b"tiny", wire_size=8 * MiB)
        yield from server.recv()
        return sim.now - t0

    elapsed = run(sim, scenario())
    # 8 MiB: ~1.2 ms on the wire plus two ~2.6 ms CPU copies
    assert elapsed > 5e-3


def test_bytes_sent_accounting():
    sim, _net, stacks = make_stacks()

    def scenario():
        client, server = yield from connect_pair(sim, stacks)
        yield from client.send(b"q" * 100)
        yield from server.recv()
        return client.bytes_sent

    assert run(sim, scenario()) >= 100
