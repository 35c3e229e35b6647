"""Data-path tests: one-sided READ/WRITE, atomics, SEND/RECV."""

import pytest

from repro.rdma.types import Access, Opcode, QpError, RdmaError, WcStatus
from repro.rdma.wr import RecvWR, SendWR
from repro.simnet.config import MiB, us
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


def read_wr(pair, local_offset, length, remote_offset, **kw):
    return SendWR(
        opcode=Opcode.RDMA_READ,
        local_mr=pair.client_mr,
        local_addr=pair.client_mr.addr + local_offset,
        length=length,
        remote_addr=pair.server_mr.addr + remote_offset,
        rkey=pair.server_mr.rkey,
        **kw,
    )


def send_wr(pair, payload, **kw):
    """A SEND of *payload* from the start of the client's registered MR."""
    pair.client_mr.buffer.write(0, payload)
    return SendWR(opcode=Opcode.SEND, local_mr=pair.client_mr,
                  local_addr=pair.client_mr.addr, length=len(payload), **kw)


def test_rdma_write_moves_bytes():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.client_mr.buffer.write(0, b"hello rstore")
        pair.qp.post_send(write_wr(pair, 0, 12, remote_offset=100))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.ok and wc.opcode is Opcode.RDMA_WRITE and wc.byte_len == 12
        assert pair.server_mr.buffer.read(100, 12) == b"hello rstore"

    run(world, scenario())


def test_rdma_read_fetches_bytes():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.server_mr.buffer.write(500, b"remote-data")
        pair.qp.post_send(read_wr(pair, 0, 11, remote_offset=500))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.ok
        assert pair.client_mr.buffer.read(0, 11) == b"remote-data"

    run(world, scenario())


def test_one_sided_ops_never_touch_remote_cpu():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        for i in range(50):
            pair.qp.post_send(write_wr(pair, 0, 4096, remote_offset=0, wr_id=i))
        yield from wait_for(pair.client_cq, 50)
        assert pair.server_nic.host.cpu.busy_seconds == 0.0

    run(world, scenario())


def test_small_read_latency_close_to_hardware():
    """The paper's headline: data-path latency in the ~2-3 us range."""
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        start = world.sim.now
        pair.qp.post_send(read_wr(pair, 0, 8, remote_offset=0))
        yield from wait_for(pair.client_cq, 1)
        return world.sim.now - start

    latency = run(world, scenario())
    assert us(1.5) < latency < us(4.0)


def test_write_latency_lower_than_read():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        t0 = world.sim.now
        pair.qp.post_send(write_wr(pair, 0, 8, remote_offset=0))
        yield from wait_for(pair.client_cq, 1)
        write_lat = world.sim.now - t0
        t1 = world.sim.now
        pair.qp.post_send(read_wr(pair, 0, 8, remote_offset=0))
        yield from wait_for(pair.client_cq, 1)
        read_lat = world.sim.now - t1
        return write_lat, read_lat

    write_lat, read_lat = run(world, scenario())
    # A write's payload travels with the request; a read pays the request
    # hop before any data flows, so it cannot be faster.
    assert write_lat <= read_lat


def test_large_write_achieves_near_line_rate():
    world = make_world()
    size = 64 * MiB

    def scenario():
        pair = yield from connected_pair(world, client_mr_len=size,
                                         server_mr_len=size)
        start = world.sim.now
        pair.qp.post_send(write_wr(pair, 0, size, remote_offset=0))
        yield from wait_for(pair.client_cq, 1)
        elapsed = world.sim.now - start
        return size * 8 / elapsed

    goodput = run(world, scenario())
    rate = world.net.config.link_rate_bps
    assert 0.90 * rate < goodput <= rate


def test_writes_complete_in_post_order():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        for i in range(10):
            pair.qp.post_send(write_wr(pair, 0, 1000, remote_offset=0, wr_id=i))
        wcs = yield from wait_for(pair.client_cq, 10)
        assert [wc.wr_id for wc in wcs] == list(range(10))

    run(world, scenario())


def test_atomic_faa_accumulates_and_returns_old():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        olds = []
        for _ in range(3):
            pair.qp.post_send(
                SendWR(
                    opcode=Opcode.ATOMIC_FAA,
                    remote_addr=pair.server_mr.addr,  # aligned
                    rkey=pair.server_mr.rkey,
                    compare=5,  # the addend
                )
            )
            (wc,) = yield from wait_for(pair.client_cq, 1)
            assert wc.ok
            olds.append(wc.atomic_result)
        counter = int.from_bytes(pair.server_mr.buffer.read(0, 8), "little")
        return olds, counter

    olds, counter = run(world, scenario())
    assert olds == [0, 5, 10]
    assert counter == 15


def test_atomic_cas_swaps_only_on_match():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.server_mr.buffer.write(0, (42).to_bytes(8, "little"))

        pair.qp.post_send(
            SendWR(opcode=Opcode.ATOMIC_CAS, remote_addr=pair.server_mr.addr,
                   rkey=pair.server_mr.rkey, compare=41, swap=99)
        )
        (wc1,) = yield from wait_for(pair.client_cq, 1)
        value_after_miss = int.from_bytes(pair.server_mr.buffer.read(0, 8), "little")

        pair.qp.post_send(
            SendWR(opcode=Opcode.ATOMIC_CAS, remote_addr=pair.server_mr.addr,
                   rkey=pair.server_mr.rkey, compare=42, swap=99)
        )
        (wc2,) = yield from wait_for(pair.client_cq, 1)
        value_after_hit = int.from_bytes(pair.server_mr.buffer.read(0, 8), "little")
        return wc1.atomic_result, value_after_miss, wc2.atomic_result, value_after_hit

    old1, miss, old2, hit = run(world, scenario())
    assert old1 == 42 and miss == 42  # compare failed: untouched
    assert old2 == 42 and hit == 99   # compare matched: swapped


def test_unaligned_atomic_fails():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.qp.post_send(
            SendWR(opcode=Opcode.ATOMIC_FAA, remote_addr=pair.server_mr.addr + 3,
                   rkey=pair.server_mr.rkey, compare=1)
        )
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.status is WcStatus.REM_ACCESS_ERR
        assert "aligned" in wc.detail

    run(world, scenario())


def test_send_recv_delivers_payload():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.server_qp.post_recv(RecvWR(local_mr=pair.server_mr, wr_id="r0"))
        pair.qp.post_send(send_wr(pair, b"ping!", wr_id="s0"))
        (rwc,) = yield from wait_for(pair.server_cq, 1)
        (swc,) = yield from wait_for(pair.client_cq, 1)
        assert rwc.ok and rwc.opcode is Opcode.RECV and rwc.byte_len == 5
        assert swc.ok and swc.opcode is Opcode.SEND
        assert pair.server_mr.buffer.read(0, 5) == b"ping!"

    run(world, scenario())


def test_send_parks_until_recv_posted():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.qp.post_send(send_wr(pair, b"early"))
        yield world.sim.timeout(1e-3)  # message long since arrived
        assert queued(pair.server_cq) == 0
        pair.server_qp.post_recv(RecvWR(local_mr=pair.server_mr))
        (rwc,) = yield from wait_for(pair.server_cq, 1)
        assert rwc.ok
        assert pair.server_mr.buffer.read(0, 5) == b"early"

    run(world, scenario())


def test_send_larger_than_recv_buffer_errors_both_sides():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.server_qp.post_recv(
            RecvWR(local_mr=pair.server_mr, length=4, wr_id="small")
        )
        pair.qp.post_send(send_wr(pair, b"way too big"))
        (rwc,) = yield from wait_for(pair.server_cq, 1)
        (swc,) = yield from wait_for(pair.client_cq, 1)
        assert rwc.status is WcStatus.LOC_LEN_ERR
        assert swc.status is WcStatus.REM_INV_REQ_ERR

    run(world, scenario())


def test_unsignaled_write_produces_no_completion():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.qp.post_send(write_wr(pair, 0, 64, remote_offset=0, signaled=False))
        pair.qp.post_send(write_wr(pair, 0, 64, remote_offset=64, wr_id="last"))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.wr_id == "last"
        assert queued(pair.client_cq) == 0
        assert pair.qp._inflight == 0  # unsignaled WR still retired

    run(world, scenario())


def test_bad_rkey_fails_and_errors_qp():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        wr = write_wr(pair, 0, 8, remote_offset=0)
        wr.rkey = 0xDEAD
        pair.qp.post_send(wr)
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.status is WcStatus.REM_ACCESS_ERR
        with pytest.raises(QpError):
            pair.qp.post_send(write_wr(pair, 0, 8, remote_offset=0))

    run(world, scenario())


def test_write_without_remote_permission_fails():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world, access=Access.REMOTE_READ)
        pair.qp.post_send(write_wr(pair, 0, 8, remote_offset=0))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.status is WcStatus.REM_ACCESS_ERR

    run(world, scenario())


def test_out_of_bounds_write_fails():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world, server_mr_len=4096)
        pair.qp.post_send(write_wr(pair, 0, 128, remote_offset=4000))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.status is WcStatus.REM_ACCESS_ERR
        assert "outside region" in wc.detail

    run(world, scenario())


def test_send_queue_overflow_raises():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        with pytest.raises(RdmaError, match="full"):
            for _ in range(pair.qp.sq_depth + 1):
                pair.qp.post_send(write_wr(pair, 0, 8, remote_offset=0))

    run(world, scenario())


def test_dead_host_read_times_out_with_retry_error():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.server_nic.kill()
        t0 = world.sim.now
        pair.qp.post_send(read_wr(pair, 0, 8, remote_offset=0))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.status is WcStatus.RETRY_EXC_ERR
        assert world.sim.now - t0 >= pair.client_nic.model.retry_timeout_s

    run(world, scenario())


def test_an_armed_filter_that_cuts_nothing_leaves_no_watchdog_behind():
    # with partitions armed the handshake and every WR carry a retry
    # watchdog; a delivered message and a raised completion withdraw it
    world = make_world()
    world.net.fault_filter = lambda _src, _dst: False

    def scenario():
        pair = yield from connected_pair(world)
        for _ in range(100):
            pair.qp.post_send(read_wr(pair, 0, 8, remote_offset=0))
            (wc,) = yield from wait_for(pair.client_cq, 1)
            assert wc.ok
        return len(world.sim._queue)

    assert run(world, scenario()) == 0
    world.sim.run()
    assert world.sim.now < world.nics[0].model.retry_timeout_s


def test_wire_length_scales_transfer_time():
    world = make_world()

    def timed_write(pair, wire_length):
        t0 = world.sim.now
        pair.qp.post_send(
            write_wr(pair, 0, 64 * 1024, remote_offset=0, wire_length=wire_length)
        )
        yield from wait_for(pair.client_cq, 1)
        return world.sim.now - t0

    def scenario():
        pair = yield from connected_pair(world)
        t_real = yield from timed_write(pair, wire_length=None)
        t_scaled = yield from timed_write(pair, wire_length=64 * 1024 * 100)
        return t_real, t_scaled

    t_real, t_scaled = run(world, scenario())
    # 100x the wire bytes: ~44x the time (the unscaled single-frame
    # message pays egress+ingress serialization; the scaled 100-frame
    # message pipelines the two channels).
    assert t_scaled > 40 * t_real
