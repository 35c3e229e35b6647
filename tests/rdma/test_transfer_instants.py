"""The instants a one-sided transfer's bytes are taken at.

A READ returns the remote bytes as of its DMA at the responder, a WRITE
carries the local bytes as of its launch — whatever either side writes
while the bytes are on the wire.  Snapshots shared copy-on-write must
keep exactly this; these tests pin the schedule they check, so they
cannot pass by never racing.
"""

import pytest

from repro.cluster import build_cluster
from repro.rdma.nic import RNic
from repro.simnet.config import MiB

OLD, NEW = b"o" * MiB, b"n" * MiB


@pytest.fixture
def instants(monkeypatch):
    """``(stage, simulated time)`` of every 1 MiB transfer stage."""
    seen = []

    def spy(name, stage):
        original = getattr(RNic, name)

        def recorded(self, qp, wr, *args):
            if wr.length == MiB:
                seen.append((stage, self.sim.now))
            return original(self, qp, wr, *args)

        monkeypatch.setattr(RNic, name, recorded)

    spy("_launch", "launch")
    spy("_read_dma", "read dma")
    spy("_write_dma", "write dma")
    spy("_read_response_arrived", "read landed")
    return seen


def _order(seen):
    return [stage for stage, _at in sorted(seen, key=lambda s: s[1])]


def _cluster():
    # host 0 serves, hosts 1 and 2 are clients; one 1 MiB stripe
    return build_cluster(num_machines=3, server_hosts=[0],
                         server_capacity=64 * MiB)


def test_a_read_returns_the_bytes_of_its_dma_instant(instants):
    cluster = _cluster()
    reader, writer = cluster.client(1), cluster.client(2)
    sim = cluster.sim
    got = {}

    def app():
        region = yield from reader.alloc("stripe", MiB)
        mine = yield from reader.map(region)
        theirs = yield from writer.map("stripe")
        sink = yield from reader.alloc_local(MiB)
        source = yield from writer.alloc_local(MiB)
        source.buffer.write(0, OLD)
        yield from theirs.write_from(source, source.addr, 0, MiB)
        source.buffer.write(0, NEW)
        instants.clear()

        def read():
            yield from mine.read_into(sink, sink.addr, 0, MiB)
            got["read"] = sink.buffer.read(0, MiB)

        # the write's 1 MiB reaches the server while the read's 1 MiB
        # response is still on the wire back to the reader
        yield from sim.gather([
            read(), theirs.write_from(source, source.addr, 0, MiB)])
        got["after"] = yield from mine.read(0, MiB)

    cluster.run_app(app())
    stages = _order(instants)
    assert stages.index("read dma") < stages.index("write dma") < \
        stages.index("read landed"), stages
    assert got["read"] == OLD
    assert got["after"] == NEW


def test_a_write_carries_the_bytes_of_its_launch_instant(instants):
    cluster = _cluster()
    client = cluster.client(1)
    sim = cluster.sim
    got = {}

    def app():
        region = yield from client.alloc("stripe", MiB)
        mapping = yield from client.map(region)
        source = yield from client.alloc_local(MiB)
        source.buffer.write(0, OLD)
        instants.clear()
        batch = client.batch()
        batch.write_from(mapping, source, source.addr, 0, MiB)
        yield from batch.flush()
        while not instants:  # until the NIC has launched it
            yield sim.timeout(0.1e-6)
        source.buffer.write(0, NEW)  # the app reuses its buffer at once
        got["overwritten"] = sim.now
        yield from batch.wait_all()
        got["stages"] = sorted(instants, key=lambda s: s[1])
        got["remote"] = yield from mapping.read(0, MiB)

    cluster.run_app(app())
    (launch, launched), (dma, applied) = got["stages"]
    assert (launch, dma) == ("launch", "write dma")
    assert launched <= got["overwritten"] < applied
    assert got["remote"] == OLD
