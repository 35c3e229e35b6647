"""Build a simulated RStore deployment in one call.

``build_cluster(12)`` reproduces the paper's testbed shape: twelve
machines on one FDR switch, a master on machine 0, a memory server on
every machine, and clients wherever the application runs.  The call
boots everything inside the simulation (charging realistic startup
costs) and returns with the cluster ready at some simulated time > 0;
experiments measure deltas from there.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.client import RStoreClient
from repro.core.config import RStoreConfig
from repro.core.master import Master
from repro.core.metalog import MetaLog
from repro.core.server import MemoryServer
from repro.net.tcp import TcpStack
from repro.rdma.cm import ConnectionManager
from repro.rdma.nic import RNic
from repro.sanitize import rsan_for
from repro.simnet.config import MiB, NetworkConfig
from repro.simnet.kernel import Simulator
from repro.simnet.topology import Network

__all__ = ["Cluster", "build_cluster"]


class Cluster:
    """A booted testbed: simulator, fabric, store services, clients."""

    def __init__(self, sim: Simulator, net: Network, cm: ConnectionManager,
                 config: RStoreConfig):
        self.sim = sim
        self.net = net
        self.cm = cm
        self.config = config
        self.nics: list[RNic] = []
        self.tcp_stacks: list[TcpStack] = []
        #: one master instance per metadata shard (index = shard id)
        self.masters: list[Optional[Master]] = [None] * config.control_shards
        #: the durable metadata logs, one WAL per shard — owned here so
        #: they outlive master instances across crash/restart cycles
        self.metalogs: list[MetaLog] = [
            MetaLog(sim, checkpoint_every=config.metalog_checkpoint_every)
            for _ in range(config.control_shards)
        ]
        self.servers: dict[int, MemoryServer] = {}
        self.clients: dict[int, RStoreClient] = {}
        self.boot_time: float = 0.0
        self.faults = None

    @property
    def num_machines(self) -> int:
        return len(self.net)

    @property
    def master(self) -> Optional[Master]:
        """Shard 0's master — *the* master when ``control_shards == 1``."""
        return self.masters[0] if self.masters else None

    @property
    def metalog(self) -> MetaLog:
        """Shard 0's metadata WAL (single-shard compatibility alias)."""
        return self.metalogs[0]

    def nic(self, host_id: int) -> RNic:
        return self.nics[host_id]

    def client(self, host_id: int) -> RStoreClient:
        """The (already started) RStore client on *host_id*."""
        return self.clients[host_id]

    def server(self, host_id: int) -> MemoryServer:
        return self.servers[host_id]

    def spawn(self, generator, name: str = ""):
        """Run an application generator as a simulated process."""
        return self.sim.process(generator, name=name)

    def run(self, until=None):
        """Advance the simulation (to an event, a time, or quiescence)."""
        return self.sim.run(until=until)

    def run_app(self, generator, name: str = "app"):
        """Spawn *generator* and run until it finishes; returns its value."""
        return self.sim.run(until=self.sim.process(generator, name=name))

    def kill_server(self, host_id: int) -> None:
        """Fail a memory server's host (NIC down, heartbeats stop)."""
        self.servers[host_id].kill()

    def crash_master(self, shard: int = 0) -> None:
        """Fail-stop one metadata shard's master process.

        Its in-memory state is gone; only that shard's WAL survives.
        Every control-plane connection is torn down so clients and
        servers observe channel death.  The master *host* (NIC, fabric
        link) stays up — this is a process crash, not a machine crash.
        Other shards keep serving the names they own.
        """
        assert self.masters[shard] is not None, "no master to crash"
        self.masters[shard].crash()

    def restart_master(self, shard: int = 0):
        """Boot a fresh master for one shard on the same host (generator).

        The new instance replays that shard's WAL, bumps its epoch, and
        runs the recovery protocol (re-registration grace, straggler
        burial, repair resumption).
        """
        master = Master(
            self.sim,
            self.nics[self.config.master_host],
            self.cm,
            self.config,
            metalog=self.metalogs[shard],
            shard_id=shard,
        )
        self.masters[shard] = master
        yield from master.start()
        return master

    def network_bytes(self) -> int:
        return self.net.bytes_carried


def build_cluster(
    num_machines: int = 12,
    config: Optional[RStoreConfig] = None,
    net_config: Optional[NetworkConfig] = None,
    server_hosts: Optional[Iterable[int]] = None,
    client_hosts: Optional[Iterable[int]] = None,
    server_capacity: int = 4096 * MiB,
    faults=None,
) -> Cluster:
    """Construct and boot a cluster; returns it ready for use.

    By default the master runs on machine 0, every machine (including
    0) donates ``server_capacity`` bytes of DRAM, and every machine gets
    a started client — matching the paper's co-located deployment.

    ``faults`` takes a :class:`~repro.simnet.faults.FaultInjector`; its
    schedule is armed right after boot (windows count from that point).
    """
    config = config or RStoreConfig()
    sim = Simulator()
    if config.sanitize:
        rsan_for(sim).enable()
    net = Network(sim, num_machines, net_config or NetworkConfig())
    cm = ConnectionManager(sim, net)
    cluster = Cluster(sim, net, cm, config)
    cluster.nics = [RNic(sim, host, net) for host in net.hosts]
    cluster.tcp_stacks = [TcpStack(sim, host, net) for host in net.hosts]

    server_ids = list(server_hosts) if server_hosts is not None else list(
        range(num_machines)
    )
    client_ids = list(client_hosts) if client_hosts is not None else list(
        range(num_machines)
    )

    def boot():
        # Every metadata shard boots on the master host — partitioning
        # the namespace, not (yet) spreading it over machines; each is
        # its own process with its own WAL and epoch.
        for shard in range(config.control_shards):
            master = Master(sim, cluster.nics[config.master_host], cm,
                            config, metalog=cluster.metalogs[shard],
                            shard_id=shard)
            cluster.masters[shard] = master
            yield from master.start()
        # Memory servers boot concurrently, like daemons across a rack.
        server_procs = []
        for host_id in server_ids:
            server = MemoryServer(
                sim, cluster.nics[host_id], cm, config,
                capacity=server_capacity,
            )
            cluster.servers[host_id] = server
            server_procs.append(sim.process(server.start(),
                                            name=f"boot-server-{host_id}"))
        yield sim.all_of(server_procs)
        client_procs = []
        for host_id in client_ids:
            client = RStoreClient(sim, cluster.nics[host_id], cm, config)
            cluster.clients[host_id] = client
            client_procs.append(sim.process(client.start(),
                                            name=f"boot-client-{host_id}"))
        yield sim.all_of(client_procs)

    sim.run(until=sim.process(boot(), name="cluster-boot"))
    cluster.boot_time = sim.now
    if faults is not None:
        cluster.faults = faults.attach(cluster)
    return cluster
