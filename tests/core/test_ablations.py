"""Ablation modes: per-IO resolution and the two-sided data path.

These modes exist to quantify what RStore's separation philosophy buys
(experiment E9); the tests pin their semantics and their cost ordering.
"""

from repro.core import RStoreConfig
from repro.cluster import build_cluster
from repro.simnet.config import KiB, MiB


def build(config):
    return build_cluster(num_machines=3, config=config,
                         server_capacity=64 * MiB)


def roundtrip(cluster, name, size=64 * KiB, payload_size=4 * KiB):
    client = cluster.client(1)

    def app():
        region = yield from client.alloc(name, size)
        mapping = yield from client.map(region)
        payload = b"ab" * (payload_size // 2)
        t0 = cluster.sim.now
        yield from mapping.write(0, payload)
        data = yield from mapping.read(0, len(payload))
        elapsed = cluster.sim.now - t0
        assert data == payload
        return elapsed

    return cluster.run_app(app())


def test_resolve_per_io_correct_but_slower():
    base = roundtrip(build(RStoreConfig(stripe_size=64 * KiB)), "r1")
    per_io = roundtrip(
        build(RStoreConfig(stripe_size=64 * KiB, resolve_per_io=True)), "r2"
    )
    assert per_io > base


def test_two_sided_correct_but_slower():
    base = roundtrip(build(RStoreConfig(stripe_size=64 * KiB)), "t1")
    two_sided = roundtrip(
        build(RStoreConfig(stripe_size=64 * KiB, two_sided_data_path=True)),
        "t2",
    )
    assert two_sided > base


def test_two_sided_burns_server_cpu_one_sided_does_not():
    one_sided = build(RStoreConfig(stripe_size=64 * KiB))
    roundtrip(one_sided, "cpu1", size=1 * MiB, payload_size=1 * MiB)
    two_sided = build(
        RStoreConfig(stripe_size=64 * KiB, two_sided_data_path=True)
    )
    roundtrip(two_sided, "cpu2", size=1 * MiB, payload_size=1 * MiB)

    def server_cpu(cluster):
        return sum(
            cluster.net.host(h).cpu.busy_seconds
            for h in cluster.servers
            if h != 1  # exclude the host running the client
        )

    assert server_cpu(two_sided) > 3 * server_cpu(one_sided)
