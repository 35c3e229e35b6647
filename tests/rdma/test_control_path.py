"""Control-path tests: PDs, MR registration cost, CM handshakes.

These pin down the asymmetry the paper exploits: setup operations cost
tens to hundreds of microseconds, data-path operations cost ~2 us.
"""

import pytest

from repro.rdma.cm import ConnectError
from repro.rdma.device import PAGE_SIZE
from repro.rdma.types import Access, Opcode, RdmaError
from repro.rdma.wr import SendWR
from repro.simnet.config import MiB, us

from tests.rdma.helpers import connected_pair, make_world, run, wait_for


def test_reg_mr_cost_grows_with_size():
    world = make_world()
    nic = world.nics[0]

    def register(length):
        pd = yield from nic.alloc_pd()
        t0 = world.sim.now
        yield from nic.reg_mr(pd, length=length)
        return world.sim.now - t0

    def scenario():
        small = yield from register(PAGE_SIZE)
        large = yield from register(64 * MiB)
        return small, large

    small, large = run(world, scenario())
    assert small < large
    # 64 MiB = 16384 pages at ~0.35us/page dominates the base cost
    assert large > 100 * small


def test_reg_mr_requires_buffer_or_length():
    world = make_world()
    nic = world.nics[0]

    def scenario():
        pd = yield from nic.alloc_pd()
        with pytest.raises(RdmaError):
            yield from nic.reg_mr(pd)

    run(world, scenario())


def test_connect_establishes_usable_qp_pair():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        assert pair.qp.remote is pair.server_qp
        assert pair.server_qp.remote is pair.qp
        return pair

    run(world, scenario())


def test_connect_without_listener_raises():
    world = make_world()
    nic = world.nics[0]

    def scenario():
        pd = yield from nic.alloc_pd()
        cq = yield from nic.create_cq()
        with pytest.raises(ConnectError, match="no listener"):
            yield from world.cm.connect(nic, 1, "ghost-service", pd, cq)

    run(world, scenario())


def test_connect_to_dead_host_raises():
    world = make_world()

    def scenario():
        snic = world.nics[1]
        spd = yield from snic.alloc_pd()
        scq = yield from snic.create_cq()
        world.cm.listen(snic, "svc", spd, scq)
        snic.kill()
        cnic = world.nics[0]
        cpd = yield from cnic.alloc_pd()
        ccq = yield from cnic.create_cq()
        with pytest.raises(ConnectError, match="unreachable"):
            yield from world.cm.connect(cnic, 1, "svc", cpd, ccq)

    run(world, scenario())


def test_duplicate_listen_rejected():
    world = make_world()
    nic = world.nics[1]

    def scenario():
        pd = yield from nic.alloc_pd()
        cq = yield from nic.create_cq()
        world.cm.listen(nic, "svc", pd, cq)
        with pytest.raises(RdmaError, match="already listening"):
            world.cm.listen(nic, "svc", pd, cq)

    run(world, scenario())


def test_setup_vs_data_path_asymmetry():
    """Connection setup must be orders of magnitude above one IO."""
    world = make_world()

    def scenario():
        t0 = world.sim.now
        pair = yield from connected_pair(world)
        setup = world.sim.now - t0
        t1 = world.sim.now
        pair.qp.post_send(
            SendWR(
                opcode=Opcode.RDMA_READ,
                local_mr=pair.client_mr,
                local_addr=pair.client_mr.addr,
                length=8,
                remote_addr=pair.server_mr.addr,
                rkey=pair.server_mr.rkey,
            )
        )
        yield from wait_for(pair.client_cq, 1)
        io = world.sim.now - t1
        return setup, io

    setup, io = run(world, scenario())
    assert setup > 50 * io


def test_pd_mismatch_between_qp_and_mr_rejected():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        other_pd = yield from pair.client_nic.alloc_pd()
        rogue_mr = yield from pair.client_nic.reg_mr(other_pd, length=4096)
        with pytest.raises(RdmaError, match="protection domain"):
            pair.qp.post_send(
                SendWR(
                    opcode=Opcode.RDMA_WRITE,
                    local_mr=rogue_mr,
                    local_addr=rogue_mr.addr,
                    length=8,
                    remote_addr=pair.server_mr.addr,
                    rkey=pair.server_mr.rkey,
                )
            )

    run(world, scenario())


def test_connection_count_metric():
    world = make_world(num_hosts=3)

    def scenario():
        snic = world.nics[2]
        spd = yield from snic.alloc_pd()
        scq = yield from snic.create_cq()
        world.cm.listen(snic, "svc", spd, scq)
        for client in (0, 1):
            cnic = world.nics[client]
            cpd = yield from cnic.alloc_pd()
            ccq = yield from cnic.create_cq()
            yield from world.cm.connect(cnic, 2, "svc", cpd, ccq)
        return world.cm.connections

    assert run(world, scenario()) == 2
