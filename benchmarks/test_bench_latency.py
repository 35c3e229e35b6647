"""E2 — Data-path latency vs transfer size.

Anchors "close-to-hardware latency": RStore read/write latency tracks
raw verbs within a small constant, while the sockets store and the
two-sided ablation sit several times higher at small sizes.
"""

from repro.baselines import TcpMemoryClient, TcpMemoryServer
from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.rdma.types import Access, Opcode
from repro.rdma.wr import SendWR
from repro.simnet.config import KiB, MiB, us

from benchmarks.conftest import claim, fmt_us, print_table

SIZES = [8, 64, 512, 4 * KiB, 32 * KiB, 256 * KiB, 1 * MiB]
REPS = 5


def build(**config):
    return build_cluster(
        num_machines=3,
        config=RStoreConfig(stripe_size=4 * MiB, **config),
        server_capacity=64 * MiB,
    )


def timed_loop(sim, op_factory):
    """Average simulated latency of REPS sequential ops (generator).

    One untimed warm-up op absorbs lazy first-touch costs (connection
    establishment in the two-sided mode, cache fills) so the number is
    steady-state latency, matching how such plots are measured.
    """
    yield from op_factory()
    t0 = sim.now
    for _ in range(REPS):
        yield from op_factory()
    return (sim.now - t0) / REPS


def raw_verbs_read(cluster, size):
    """One-sided READ straight on the verbs layer (no store above it)."""
    sim = cluster.sim
    nic_c, nic_s = cluster.nic(1), cluster.nic(2)

    def scenario():
        spd = yield from nic_s.alloc_pd()
        scq = yield from nic_s.create_cq()
        smr = yield from nic_s.reg_mr(spd, length=2 * MiB,
                                      access=Access.all_remote())
        cluster.cm.listen(nic_s, f"raw-{size}", spd, scq)
        cpd = yield from nic_c.alloc_pd()
        ccq = yield from nic_c.create_cq()
        cmr = yield from nic_c.reg_mr(cpd, length=2 * MiB)
        qp = yield from cluster.cm.connect(nic_c, 2, f"raw-{size}", cpd, ccq)

        def one_read():
            qp.post_send(SendWR(
                opcode=Opcode.RDMA_READ, local_mr=cmr, local_addr=cmr.addr,
                length=size, remote_addr=smr.addr, rkey=smr.rkey,
            ))
            yield ccq.next_completion()

        return (yield from timed_loop(sim, one_read))

    return cluster.run_app(scenario())


def rstore_latency(cluster, size, write=False):
    sim = cluster.sim
    client = cluster.client(1)

    def scenario():
        name = f"e2-{'w' if write else 'r'}-{size}"
        yield from client.alloc(name, 2 * MiB, preferred_host=2)
        mapping = yield from client.map(name)
        local = yield from client.alloc_local(2 * MiB)

        def one_op():
            if write:
                yield from mapping.write_from(local, local.addr, 0, size)
            else:
                yield from mapping.read_into(local, local.addr, 0, size)

        return (yield from timed_loop(sim, one_op))

    return cluster.run_app(scenario())


def tcp_latency(cluster, server, size):
    sim = cluster.sim

    def scenario():
        client = yield from TcpMemoryClient(cluster, 1).connect(server)

        def one_op():
            yield from client.read(0, size)

        return (yield from timed_loop(sim, one_op))

    return cluster.run_app(scenario())


def two_sided_latency(size):
    return rstore_latency(build(two_sided_data_path=True), size)


def run_experiment():
    cluster = build()
    tcp_server = TcpMemoryServer(cluster, host_id=2, size=2 * MiB)
    rows = []
    for size in SIZES:
        rows.append([
            size,
            raw_verbs_read(cluster, size),
            rstore_latency(cluster, size, write=False),
            rstore_latency(cluster, size, write=True),
            two_sided_latency(size),
            tcp_latency(cluster, tcp_server, size),
        ])
    return rows


def test_e2_data_path_latency(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print_table(
        benchmark,
        "E2: data-path latency vs transfer size",
        ["size (B)", "raw verbs (us)", "RStore rd (us)", "RStore wr (us)",
         "2-sided (us)", "sockets (us)"],
        [
            [s, fmt_us(raw), fmt_us(rd), fmt_us(wr), fmt_us(ts), fmt_us(tcp)]
            for s, raw, rd, wr, ts, tcp in rows
        ],
    )
    benchmark.extra_info["rows"] = [
        {"size": s, "raw_s": raw, "rstore_read_s": rd, "rstore_write_s": wr,
         "two_sided_s": ts, "sockets_s": tcp}
        for s, raw, rd, wr, ts, tcp in rows
    ]
    for size, raw, rd, _wr, two_sided, tcp in rows:
        # RStore tracks raw verbs closely (the "close-to-hardware" claim)
        assert raw <= rd < raw + us(1.0)
        # two-sided and sockets pay progressively more at small sizes
        if size <= 4 * KiB:
            assert two_sided > 1.5 * rd
            assert tcp > 3 * rd
    # small reads land in the ~2-4 us "close to hardware" window; the
    # abstract gives no number, so the reference is the raw-verbs READ
    # on the same fabric
    claim(benchmark, '"close-to-hardware latency": 8 B RStore read '
          "(reference: raw verbs on the same fabric)",
          paper=rows[0][1] * 1e6, measured=rows[0][2] * 1e6,
          band=(1.5, 4.5), unit=" µs")
