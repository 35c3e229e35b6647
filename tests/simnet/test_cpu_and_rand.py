"""CPU cost model and deterministic-randomness helpers."""

import pytest

from repro.simnet.cpu import Cpu
from repro.simnet.kernel import Simulator
from repro.simnet.rand import derive_rng, derive_seed
from tests.probes import runnable_backlog


class TestCpu:
    def test_run_charges_time(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)

        def app():
            yield from cpu.run(1.5)

        sim.run(until=sim.process(app()))
        assert sim.now == 1.5
        assert cpu.busy_seconds == 1.5

    def test_cores_limit_parallelism(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=2)
        finished = []

        def worker(tag):
            yield from cpu.run(1.0)
            finished.append((tag, sim.now))

        for tag in "abc":
            sim.process(worker(tag))
        sim.run()
        # two run in parallel; the third waits for a free core
        assert [t for _tag, t in finished] == [1.0, 1.0, 2.0]

    def test_copy_uses_bandwidth(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1, copy_bandwidth_Bps=1e9)

        def app():
            yield from cpu.copy(500_000_000)

        sim.run(until=sim.process(app()))
        assert sim.now == pytest.approx(0.5)

    def test_negative_time_rejected(self):
        sim = Simulator()
        cpu = Cpu(sim)

        def app():
            yield from cpu.run(-1)

        with pytest.raises(ValueError):
            sim.run(until=sim.process(app()))

    def test_utilization(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=4)

        def app():
            yield from cpu.run(1.0)
            yield sim.timeout(1.0)

        sim.run(until=sim.process(app()))
        assert cpu.busy_seconds / (sim.now * cpu.cores) == pytest.approx(
            1.0 / (2.0 * 4))

    def test_active_and_backlog(self):
        sim = Simulator()
        cpu = Cpu(sim, cores=1)

        def worker():
            yield from cpu.run(1.0)

        sim.process(worker())
        sim.process(worker())
        sim.run(until=0.5)
        assert cpu.active == 1
        assert runnable_backlog(cpu) == 1


class TestRand:
    def test_same_inputs_same_stream(self):
        a = derive_rng(42, "nic-0")
        b = derive_rng(42, "nic-0")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_labels_different_streams(self):
        a = derive_rng(42, "nic-0")
        b = derive_rng(42, "nic-1")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_seed_is_64_bit(self):
        seed = derive_seed(1, "x")
        assert 0 <= seed < (1 << 64)
