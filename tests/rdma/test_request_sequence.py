"""An RC responder executes nothing past a lost request.

Every posted request carries its queue pair's next sequence number and
the responder admits only the one it expects, so a request that was
lost — dropped at launch, or eaten by a partition — takes everything
posted behind it on that queue pair down with it.  Ordered doorbell
pairs (``IoBatch.write(after=)``) rest on exactly this.
"""

from repro.rdma.types import Opcode, QpState, WcStatus
from repro.rdma.wr import SendWR

from tests.rdma.helpers import connected_pair, make_world, run, wait_for


def _write(pair, remote_offset, wr_id):
    return SendWR(opcode=Opcode.RDMA_WRITE, local_mr=pair.client_mr,
                  local_addr=pair.client_mr.addr, length=8,
                  remote_addr=pair.server_mr.addr + remote_offset,
                  rkey=pair.server_mr.rkey, wr_id=wr_id)


def test_nothing_behind_a_launch_faulted_request_is_applied():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.client_mr.buffer.write(0, b"payload!")
        pair.client_nic.fault_hook = (
            lambda _host, wr: "dropped" if wr.wr_id == 2 else "")
        pair.qp.post_send_many([_write(pair, 8 * i, i) for i in range(4)])
        wcs = yield from wait_for(pair.client_cq, 4)
        assert [(wc.wr_id, wc.ok) for wc in wcs] == [
            (0, True), (1, True), (2, False), (3, False)]
        assert wcs[3].status is WcStatus.RETRY_EXC_ERR
        assert "PSN gap" in wcs[3].detail
        # what was posted ahead of the lost request landed, nothing
        # behind it did — the parent's model applied request 3
        assert pair.server_mr.buffer.read(0, 32) == (
            b"payload!" * 2 + bytes(16))
        assert pair.qp.state is QpState.ERROR

    run(world, scenario())


def test_a_partition_drop_blocks_the_queue_pair_even_after_it_heals():
    world = make_world()
    partitioned = []
    world.net.fault_filter = lambda _src, _dst: bool(partitioned)

    def scenario():
        pair = yield from connected_pair(world)
        pair.client_mr.buffer.write(0, b"payload!")
        partitioned.append(True)
        pair.qp.post_send(_write(pair, 0, "lost"))
        yield world.sim.timeout(1e-3)  # the request vanished in the fabric
        partitioned.clear()
        pair.qp.post_send(_write(pair, 8, "late"))
        wcs = yield from wait_for(pair.client_cq, 2)
        assert [(wc.wr_id, wc.ok) for wc in wcs] == [
            ("lost", False), ("late", False)]
        # the healed fabric delivered the second request; the responder
        # still refused it: it was waiting for the first
        assert pair.server_mr.buffer.read(0, 16) == bytes(16)
        assert pair.server_qp._expected_psn == 0

    run(world, scenario())


def test_a_re_dialled_queue_pair_starts_a_fresh_sequence():
    world = make_world()

    def scenario():
        pair = yield from connected_pair(world)
        pair.client_mr.buffer.write(0, b"payload!")
        pair.client_nic.fault_hook = (
            lambda _host, wr: "dropped" if wr.wr_id == "lost" else "")
        pair.qp.post_send(_write(pair, 0, "lost"))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert not wc.ok and pair.qp.state is QpState.ERROR
        fresh = yield from world.cm.connect(
            pair.client_nic, 1, "test", pair.client_pd, pair.client_cq)
        fresh.post_send(_write(pair, 8, "fresh"))
        (wc,) = yield from wait_for(pair.client_cq, 1)
        assert wc.ok and wc.wr_id == "fresh"
        assert pair.server_mr.buffer.read(0, 16) == bytes(8) + b"payload!"

    run(world, scenario())
