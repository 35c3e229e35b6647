"""Unit tests for the spindle model."""

import pytest

from repro.disk.disk import Disk, DiskModel
from repro.simnet.kernel import Simulator


def run(sim, gen):
    return sim.run(until=sim.process(gen))


def test_sequential_read_time_is_bandwidth_bound():
    sim = Simulator()
    disk = Disk(sim, DiskModel(read_bandwidth_Bps=100e6))

    def scenario():
        yield from disk.read(100_000_000)

    run(sim, scenario())
    assert sim.now == pytest.approx(1.0)


def test_concurrent_accesses_serialize_on_spindle():
    sim = Simulator()
    disk = Disk(sim, DiskModel(write_bandwidth_Bps=100e6))
    finished = []

    def writer():
        yield from disk.write(50_000_000)
        finished.append(sim.now)

    sim.process(writer())
    sim.process(writer())
    sim.run()
    assert finished == [pytest.approx(0.5), pytest.approx(1.0)]


def test_accounting():
    sim = Simulator()
    disk = Disk(sim)

    def scenario():
        yield from disk.read(1000)
        yield from disk.write(2000)

    run(sim, scenario())
    assert disk.bytes_read == 1000
    assert disk.bytes_written == 2000


def test_negative_size_rejected():
    sim = Simulator()
    disk = Disk(sim)

    def scenario():
        yield from disk.read(-1)

    with pytest.raises(ValueError):
        run(sim, scenario())
