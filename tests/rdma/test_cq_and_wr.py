"""Completion-queue mechanics and work-request validation."""

import pytest

from repro.rdma.cq import CompletionQueue, WorkCompletion
from repro.rdma.memory import Buffer, MemoryRegion
from repro.rdma.types import Access, Opcode, RdmaError, WcStatus
from repro.rdma.wr import RecvWR, SendWR
from repro.simnet.kernel import Simulator
from tests.probes import queued


def wc(i=0):
    return WorkCompletion(wr_id=i, status=WcStatus.SUCCESS,
                          opcode=Opcode.RDMA_WRITE)


def drain(cq):
    """The ids of every queued completion, taken in queue order."""
    return [cq.next_completion().value.wr_id for _ in range(queued(cq))]


class TestCompletionQueue:
    def test_queued_completions_drain_fifo(self):
        cq = CompletionQueue(Simulator())
        for i in range(5):
            cq.push(wc(i))
        assert queued(cq) == 5
        assert drain(cq) == [0, 1, 2, 3, 4]
        assert queued(cq) == 0

    def test_next_completion_immediate_and_deferred(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        cq.push(wc(1))
        got = []

        def app():
            first = yield cq.next_completion()
            got.append(first.wr_id)
            second = yield cq.next_completion()  # parks
            got.append(second.wr_id)

        sim.process(app())
        sim.run()
        assert got == [1]
        cq.push(wc(2))
        sim.run()
        assert got == [1, 2]

    def test_overflow_flagged(self):
        cq = CompletionQueue(Simulator(), depth=2)
        for i in range(3):
            cq.push(wc(i))
        assert cq.overflowed

    def test_overrun_drops_and_errors_owner_qp(self):
        class StubQp:
            reason = None

            def set_error(self, reason):
                self.reason = reason

        qp = StubQp()
        cq = CompletionQueue(Simulator(), depth=2)
        for i in range(4):
            entry = wc(i)
            entry.qp = qp
            cq.push(entry)
        assert cq.overflowed
        assert cq.dropped == 2
        # overrun entries are dropped, not silently appended
        assert drain(cq) == [0, 1]
        assert "CQ overrun" in qp.reason

    def test_total_completions_counter(self):
        cq = CompletionQueue(Simulator())
        for i in range(7):
            cq.push(wc(i))
        drain(cq)
        assert cq.total_completions == 7


class TestWorkRequestValidation:
    def make_mr(self, length=4096):
        return MemoryRegion(Buffer(0x1000, length, 0), Access.LOCAL_WRITE)

    def test_recv_opcode_rejected_on_send_queue(self):
        with pytest.raises(RdmaError, match="post_recv"):
            SendWR(opcode=Opcode.RECV).validate()

    def test_atomic_length_forced_to_8(self):
        wr = SendWR(opcode=Opcode.ATOMIC_FAA, remote_addr=0, rkey=1)
        wr.validate()
        assert wr.length == 8

    def test_atomic_wrong_length_rejected(self):
        wr = SendWR(opcode=Opcode.ATOMIC_CAS, length=16, remote_addr=0, rkey=1)
        with pytest.raises(RdmaError, match="8 bytes"):
            wr.validate()

    def test_payload_without_mr_rejected(self):
        wr = SendWR(opcode=Opcode.RDMA_WRITE, length=100, remote_addr=0,
                    rkey=1)
        with pytest.raises(RdmaError, match="local MR"):
            wr.validate()

    def test_local_range_outside_mr_rejected(self):
        mr = self.make_mr(4096)
        wr = SendWR(opcode=Opcode.RDMA_WRITE, local_mr=mr,
                    local_addr=mr.addr + 4000, length=200,
                    remote_addr=0, rkey=1)
        with pytest.raises(RdmaError, match="outside region"):
            wr.validate()

    def test_wire_length_smaller_than_payload_rejected(self):
        mr = self.make_mr()
        wr = SendWR(opcode=Opcode.RDMA_WRITE, local_mr=mr,
                    local_addr=mr.addr, length=100, wire_length=50,
                    remote_addr=0, rkey=1)
        with pytest.raises(RdmaError, match="wire_length"):
            wr.validate()

    def test_bytes_on_wire_defaults_to_length(self):
        mr = self.make_mr()
        wr = SendWR(opcode=Opcode.RDMA_WRITE, local_mr=mr,
                    local_addr=mr.addr, length=100, remote_addr=0, rkey=1)
        assert wr.bytes_on_wire == 100
        wr.wire_length = 1000
        assert wr.bytes_on_wire == 1000

    def test_recv_wr_defaults_to_whole_mr(self):
        mr = self.make_mr(4096)
        rwr = RecvWR(local_mr=mr)
        assert rwr.local_addr == mr.addr
        assert rwr.length == 4096

    def test_recv_wr_outside_mr_rejected(self):
        mr = self.make_mr(4096)
        with pytest.raises(RdmaError):
            RecvWR(local_mr=mr, local_addr=mr.addr + 4000, length=200)
