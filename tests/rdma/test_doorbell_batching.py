"""Doorbell batching and selective signaling at the verbs layer."""

import pytest

from repro.rdma.types import Opcode, QpError, QpState, RdmaError
from repro.rdma.wr import SendWR
from tests.probes import queued

from tests.rdma.helpers import connected_pair, make_world, run, wait_for


def write_wr(pair, payload_offset, length, remote_offset, **kw):
    return SendWR(
        opcode=Opcode.RDMA_WRITE,
        local_mr=pair.client_mr,
        local_addr=pair.client_mr.addr + payload_offset,
        length=length,
        remote_addr=pair.server_mr.addr + remote_offset,
        rkey=pair.server_mr.rkey,
        **kw,
    )


def test_post_send_many_rings_one_doorbell():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.client_mr.buffer.write(0, bytes(range(64)))
        bells0 = pair.client_nic.doorbells_rung
        ops0 = pair.client_nic.ops_posted
        wrs = [
            write_wr(pair, i * 8, 8, remote_offset=i * 8, wr_id=i,
                     signaled=(i == 7))
            for i in range(8)
        ]
        pair.qp.post_send_many(wrs)
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.ok and wc.wr_id == 7
        assert pair.client_nic.doorbells_rung - bells0 == 1
        assert pair.client_nic.ops_posted - ops0 == 8
        assert pair.server_mr.buffer.read(0, 64) == bytes(range(64))

    run(world, scenario())


def test_unsignaled_successes_never_reach_the_cq():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        wrs = [
            write_wr(pair, 0, 16, remote_offset=i * 16, wr_id=i,
                     signaled=(i == 5))
            for i in range(6)
        ]
        pair.qp.post_send_many(wrs)
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.wr_id == 5
        # let any stragglers land: still nothing besides the tail
        yield world.sim.timeout(1.0)
        assert queued(pair.client_cq) == 0
        # the send queue fully drained — all six slots free again
        for i in range(6):
            pair.qp.post_send(write_wr(pair, 0, 8, remote_offset=0,
                                       signaled=(i == 5)))
        yield from wait_for(pair.client_cq, 1)

    run(world, scenario())


def test_unsignaled_error_still_completes():
    """Error completions ignore the signaled flag; RC order holds."""
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        good_before = write_wr(pair, 0, 8, remote_offset=0, wr_id=1,
                               signaled=False)
        bad = write_wr(pair, 0, 8, remote_offset=0, wr_id=2, signaled=False)
        bad.rkey = pair.server_mr.rkey + 999  # remote access fault
        tail = write_wr(pair, 0, 8, remote_offset=8, wr_id=3, signaled=True)
        pair.qp.post_send_many([good_before, bad, tail])
        wcs = yield from wait_for(pair.client_cq, 2)
        # in-order delivery: the unsignaled error surfaces before the tail
        assert [w.wr_id for w in wcs] == [2, 3]
        assert not wcs[0].ok
        assert pair.qp.state is QpState.ERROR
        with pytest.raises(QpError):
            pair.qp.post_send(write_wr(pair, 0, 8, remote_offset=0))

    run(world, scenario())


def test_overfull_batch_rejected_atomically():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        # fill 126 of 128 slots, then offer a 3-WR batch: none may post
        fillers = [
            write_wr(pair, 0, 8, remote_offset=0, wr_id=i, signaled=False)
            for i in range(126)
        ]
        pair.qp.post_send_many(fillers)
        ops_before = pair.client_nic.ops_posted
        batch = [
            write_wr(pair, 0, 8, remote_offset=64 + i * 8, wr_id=200 + i,
                     signaled=(i == 2))
            for i in range(3)
        ]
        with pytest.raises(RdmaError, match="cannot admit"):
            pair.qp.post_send_many(batch)
        assert pair.client_nic.ops_posted == ops_before
        # a batch that fits the remaining two slots still goes through
        pair.qp.post_send_many([
            write_wr(pair, 0, 8, remote_offset=0, wr_id=300, signaled=False),
            write_wr(pair, 0, 8, remote_offset=8, wr_id=301, signaled=True),
        ])
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.ok and wc.wr_id == 301

    run(world, scenario())


def test_cq_overrun_moves_qp_to_error():
    """An unpolled CQ that fills up is a fatal, visible failure."""
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        small_cq = yield from world.nics[0].create_cq(depth=2)
        qp2 = yield from world.cm.connect(
            world.nics[0], 1, "test", pair.client_pd, small_cq
        )
        for i in range(4):  # all signaled, never polled
            qp2.post_send(write_wr(pair, 0, 8, remote_offset=i * 8,
                                   wr_id=i, signaled=True))
        yield world.sim.timeout(1.0)
        assert small_cq.overflowed
        assert small_cq.dropped >= 1
        assert queued(small_cq) <= 2
        assert qp2.state is QpState.ERROR
        with pytest.raises(QpError, match="CQ overrun"):
            qp2.post_send(write_wr(pair, 0, 8, remote_offset=0))

    run(world, scenario())


def test_batching_saves_doorbells_without_slowing_the_engine():
    """One list post matches N singles on latency at 1/N the doorbells.

    The engine pipelines the MMIO delay for same-instant posts, so the
    batch must never be *slower*; the saving batching buys lives in the
    posting CPU (one issue per doorbell) and shows up in the metric.
    """
    world = make_world()
    n, size = 8, 8

    def scenario():
        pair = yield from connected_pair(world)

        bells0 = pair.client_nic.doorbells_rung
        t0 = world.sim.now
        for i in range(n):
            pair.qp.post_send(write_wr(pair, 0, size, remote_offset=i * size,
                                       signaled=(i == n - 1)))
        yield from wait_for(pair.client_cq, 1)
        singles = world.sim.now - t0
        single_bells = pair.client_nic.doorbells_rung - bells0

        bells1 = pair.client_nic.doorbells_rung
        t1 = world.sim.now
        pair.qp.post_send_many([
            write_wr(pair, 0, size, remote_offset=i * size,
                     signaled=(i == n - 1))
            for i in range(n)
        ])
        yield from wait_for(pair.client_cq, 1)
        batched = world.sim.now - t1
        batch_bells = pair.client_nic.doorbells_rung - bells1

        assert batched <= singles
        assert single_bells == n
        assert batch_bells == 1

    run(world, scenario())
