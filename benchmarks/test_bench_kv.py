"""E10 (extension) — one-sided KV layer vs a memcached-style server.

Not a paper table: the abstract's applications are the graph framework
and the sorter.  This benchmark exercises the third canonical workload
of the RDMA-store era on top of the memory-like API — a hash table with
optimistic one-sided gets and CAS-locked puts (Pilaf/FaRM style) —
against a sockets KV server, showing the same substrate gap as E2/E4
at the application level.
"""

from repro.baselines import TcpKvClient, TcpKvServer
from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.simnet.config import KiB, MiB, us

from benchmarks.conftest import fmt_us, note, print_table

OPS = 150
CLIENT_COUNTS = [1, 2, 4, 8]
READ_FRACTION = 0.95  # the classic read-heavy cache mix


def build():
    return build_cluster(
        num_machines=10,
        config=RStoreConfig(stripe_size=256 * KiB),
        server_capacity=64 * MiB,
    )


def rstore_round(cluster, clients, tag):
    sim = cluster.sim

    def worker(rank, host):
        view = yield from RKVStore.open(cluster.client(host), tag)
        yield from view.get(b"warm")
        yield from cluster.client(host).barrier(f"{tag}-go", clients)
        for i in range(OPS):
            key = f"{rank}-{i % 25}".encode()
            if i % 20 == 0:  # 5% writes
                yield from view.put(key, b"v" * 64)
            else:
                yield from view.get(key)

    def app():
        store = yield from RKVStore.create(cluster.client(1), tag, slots=2048)
        yield from store.put(b"warm", b"x")
        t0 = sim.now
        procs = [
            sim.process(worker(rank, 1 + rank % 8))
            for rank in range(clients)
        ]
        yield sim.all_of(procs)
        return clients * OPS / (sim.now - t0)

    return cluster.run_app(app())


def tcp_round(cluster, clients, server):
    sim = cluster.sim

    def worker(rank, host, gate):
        client = yield from TcpKvClient(cluster, host).connect(server)
        yield from client.get(b"warm")
        yield gate
        for i in range(OPS):
            key = f"{rank}-{i % 25}".encode()
            if i % 20 == 0:
                yield from client.put(key, b"v" * 64)
            else:
                yield from client.get(key)

    def app():
        gate = sim.event()
        procs = [
            sim.process(worker(rank, 1 + rank % 8, gate))
            for rank in range(clients)
        ]
        yield sim.timeout(5e-3)
        t0 = sim.now
        gate.succeed()
        yield sim.all_of(procs)
        return clients * OPS / (sim.now - t0)

    return cluster.run_app(app())


def run_experiment():
    result = {"rstore": [], "sockets": [], "latency": {}}
    cluster = build()
    for i, clients in enumerate(CLIENT_COUNTS):
        result["rstore"].append(rstore_round(cluster, clients, f"kv{i}"))
    server = TcpKvServer(cluster, host_id=9)
    for clients in CLIENT_COUNTS:
        result["sockets"].append(tcp_round(cluster, clients, server))

    # single-op latency probe
    sim = cluster.sim

    def probe():
        store = yield from RKVStore.create(cluster.client(1), "lat",
                                           slots=256)
        yield from store.put(b"k", b"v" * 64)
        t0 = sim.now
        for _ in range(20):
            yield from store.get(b"k")
        get_lat = (sim.now - t0) / 20
        t1 = sim.now
        for _ in range(20):
            yield from store.put(b"k", b"v" * 64)
        put_lat = (sim.now - t1) / 20
        tcp = yield from TcpKvClient(cluster, 1).connect(server)
        yield from tcp.get(b"k")
        t2 = sim.now
        for _ in range(20):
            yield from tcp.get(b"k")
        tcp_lat = (sim.now - t2) / 20
        return get_lat, put_lat, tcp_lat

    get_lat, put_lat, tcp_lat = cluster.run_app(probe())
    result["latency"] = {"get_s": get_lat, "put_s": put_lat,
                         "tcp_get_s": tcp_lat}
    return result


def test_e10_kv_extension(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        "E10 (extension): KV throughput, 95/5 get/put mix (kops/s)",
        ["clients", "RStore KV (one-sided)", "sockets KV"],
        [
            [c, f"{result['rstore'][i] / 1e3:.0f}",
             f"{result['sockets'][i] / 1e3:.0f}"]
            for i, c in enumerate(CLIENT_COUNTS)
        ],
    )
    lat = result["latency"]
    note(benchmark, f"single-op latency: get {fmt_us(lat['get_s'])} us "
         f"(2 one-sided reads, one doorbell), put {fmt_us(lat['put_s'])} us "
         f"(read+CAS on one doorbell, then write+unlock on one), "
         f"sockets get {fmt_us(lat['tcp_get_s'])} us")
    benchmark.extra_info.update(result)

    for i in range(len(CLIENT_COUNTS)):
        assert result["rstore"][i] > result["sockets"][i]
    # gets cost two one-sided reads (data + version validation) on one
    # doorbell: a single round trip
    assert lat["get_s"] < us(12)
    assert lat["put_s"] > lat["get_s"]
    assert lat["tcp_get_s"] > 2 * lat["get_s"]