"""Shared scaffolding for RDMA-layer tests."""

from types import SimpleNamespace

from repro.rdma.cm import ConnectionManager
from repro.rdma.nic import RNic
from repro.rdma.types import Access
from repro.simnet.config import NetworkConfig
from repro.simnet.kernel import Simulator
from repro.simnet.topology import Network


def make_world(num_hosts: int = 2, **net_overrides) -> SimpleNamespace:
    """A cluster with one RNIC per host and a connection manager."""
    sim = Simulator()
    net = Network(sim, num_hosts, NetworkConfig(**net_overrides))
    nics = [RNic(sim, host, net) for host in net.hosts]
    cm = ConnectionManager(sim, net)
    return SimpleNamespace(sim=sim, net=net, nics=nics, cm=cm)


def run(world, gen):
    """Run a generator as a process to completion; return its value."""
    return world.sim.run(until=world.sim.process(gen))


def wait_for(cq, n: int = 1):
    """Generator: wait until *n* completions arrive on *cq*; return them."""
    out = []
    while len(out) < n:
        out.append((yield cq.next_completion()))
    return out


def connected_pair(
    world,
    client: int = 0,
    server: int = 1,
    server_mr_len: int = 1 << 20,
    client_mr_len: int = 1 << 20,
    access: Access | None = None,
    service: str = "test",
):
    """Generator: full control-path setup between two hosts.

    Returns a namespace with the client QP, both MRs, CQs and the
    server-side QP — everything a data-path test needs.
    """
    if access is None:
        access = Access.all_remote()
    cnic, snic = world.nics[client], world.nics[server]
    accepted = []

    spd = yield from snic.alloc_pd()
    scq = yield from snic.create_cq()
    server_mr = yield from snic.reg_mr(spd, length=server_mr_len, access=access)
    world.cm.listen(
        snic, service, spd, scq, on_connect=accepted.append
    )

    cpd = yield from cnic.alloc_pd()
    ccq = yield from cnic.create_cq()
    client_mr = yield from cnic.reg_mr(
        cpd, length=client_mr_len, access=Access.LOCAL_WRITE
    )
    qp = yield from world.cm.connect(cnic, server, service, cpd, ccq)

    return SimpleNamespace(
        qp=qp,
        server_qp=accepted[0],
        client_mr=client_mr,
        server_mr=server_mr,
        client_cq=ccq,
        server_cq=scq,
        client_nic=cnic,
        server_nic=snic,
        client_pd=cpd,
        server_pd=spd,
    )
