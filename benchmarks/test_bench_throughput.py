"""E4 — Small-operation throughput and server CPU involvement.

Anchors the offloading claim: RStore's data path is executed entirely
by NICs, so (a) small-op throughput scales with client parallelism and
op-issue rate, and (b) the memory server's CPU stays idle while the
two-sided and sockets designs burn server cores per byte served.
"""

from repro.baselines import TcpMemoryClient, TcpMemoryServer
from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.simnet.config import KiB, MiB

from benchmarks.conftest import note, print_table

OPS_PER_CLIENT = 200
OP_SIZE = 64
CLIENT_COUNTS = [1, 2, 4, 8]
SERVER = 9


def build(two_sided=False):
    return build_cluster(
        num_machines=10,
        config=RStoreConfig(stripe_size=4 * MiB,
                            two_sided_data_path=two_sided),
        server_capacity=64 * MiB,
    )


def rstore_round(cluster, clients, tag):
    sim = cluster.sim

    def worker(host):
        client = cluster.client(host)
        mapping = yield from client.map(f"tp-{tag}")
        local = yield from client.alloc_local(4 * KiB)
        yield from mapping.read_into(local, local.addr, 0, OP_SIZE)  # warm
        yield from client.barrier(f"tp-{tag}-go", clients)
        for _ in range(OPS_PER_CLIENT):
            yield from mapping.read_into(local, local.addr, 0, OP_SIZE)

    def app():
        yield from cluster.client(0).alloc(
            f"tp-{tag}", 1 * MiB, preferred_host=SERVER
        )
        t0 = sim.now
        procs = [
            sim.process(worker(1 + i)) for i in range(clients)
        ]
        yield sim.all_of(procs)
        return clients * OPS_PER_CLIENT / (sim.now - t0)

    return cluster.run_app(app())


def tcp_round(cluster, clients, server, tag):
    sim = cluster.sim

    def worker(host, gate):
        client = yield from TcpMemoryClient(cluster, host).connect(server)
        yield from client.read(0, OP_SIZE)  # warm
        yield gate
        for _ in range(OPS_PER_CLIENT):
            yield from client.read(0, OP_SIZE)

    def app():
        gate = sim.event()
        procs = [sim.process(worker(1 + i, gate)) for i in range(clients)]
        yield sim.timeout(5e-3)  # let everyone connect and warm up
        t0 = sim.now
        gate.succeed()
        yield sim.all_of(procs)
        return clients * OPS_PER_CLIENT / (sim.now - t0)

    return cluster.run_app(app())


def run_experiment():
    result = {"rstore": [], "two_sided": [], "sockets": [], "cpu": {}}

    for design, tag in (("rstore", "os"), ("two_sided", "ts")):
        cluster = build(two_sided=design == "two_sided")
        for clients in CLIENT_COUNTS:
            result[design].append(
                (clients, rstore_round(cluster, clients, f"{tag}{clients}"))
            )
        before = cluster.net.host(SERVER).cpu.busy_seconds
        rstore_round(cluster, 4, "cpu-probe")
        result["cpu"][design] = (
            cluster.net.host(SERVER).cpu.busy_seconds - before
        )

    sockets = build()
    tcp_server = TcpMemoryServer(sockets, host_id=SERVER, size=1 * MiB)
    for clients in CLIENT_COUNTS:
        result["sockets"].append(
            (clients, tcp_round(sockets, clients, tcp_server, f"tcp{clients}"))
        )
    before = sockets.net.host(SERVER).cpu.busy_seconds
    tcp_round(sockets, 4, tcp_server, "cpu-probe")
    result["cpu"]["sockets"] = (
        sockets.net.host(SERVER).cpu.busy_seconds - before
    )
    return result


def test_e4_small_op_throughput(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    rows = []
    for i, clients in enumerate(CLIENT_COUNTS):
        rows.append([
            clients,
            f"{result['rstore'][i][1] / 1e3:.0f}",
            f"{result['two_sided'][i][1] / 1e3:.0f}",
            f"{result['sockets'][i][1] / 1e3:.0f}",
        ])
    print_table(
        benchmark,
        f"E4: {OP_SIZE}-byte read throughput (kops/s) vs concurrent clients",
        ["clients", "RStore", "2-sided RDMA", "sockets"],
        rows,
    )
    cpu = result["cpu"]
    note(benchmark, f"server CPU for 800 x {OP_SIZE}B reads: "
         f"RStore {cpu['rstore'] * 1e6:.1f} us, "
         f"two-sided {cpu['two_sided'] * 1e6:.1f} us, "
         f"sockets {cpu['sockets'] * 1e6:.1f} us")
    benchmark.extra_info.update(
        {k: [(c, v) for c, v in vals] for k, vals in result.items()
         if k != "cpu"}
    )
    benchmark.extra_info["server_cpu_s"] = cpu

    # one-sided beats both CPU-involving designs at every client count
    for i in range(len(CLIENT_COUNTS)):
        assert result["rstore"][i][1] > result["two_sided"][i][1]
        assert result["rstore"][i][1] > result["sockets"][i][1]
    # throughput grows with client parallelism
    assert result["rstore"][-1][1] > 2 * result["rstore"][0][1]
    # the offloading claim: server CPU essentially untouched by
    # one-sided reads (the tiny residue is the server's own heartbeats)
    assert cpu["rstore"] < cpu["two_sided"] / 50
    assert cpu["sockets"] > cpu["two_sided"]
