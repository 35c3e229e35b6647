"""Deterministic fault injection for cluster simulations.

A :class:`FaultInjector` is a *schedule* of misbehaviour declared before
the cluster boots, plus the hooks that make components act on it.
Everything is driven by the simulated clock and a seeded RNG stream, so
a fault scenario replays bit-for-bit from its seed:

* **heartbeat drops** — make a healthy server look dead to the master
  (false-positive death), then let it resume and rejoin;
* **master crashes** — fail-stop the master at a chosen time and
  optionally restart it later; the restarted master replays its
  metadata log (see ``core/metalog.py``) and re-learns the membership;
* **network partitions** — split the fabric into groups whose
  cross-traffic silently vanishes; transports time out, clients fail
  fast against their deadlines;
* **wire faults** — a one-sided data operation launched by a chosen
  host completes with ``RETRY_EXC_ERR``, erroring its QP exactly like a
  peer dying mid-flight (clients must remap and replay).  By default
  the op dies *before* launch; ``where="ack"`` instead applies it
  remotely and loses only the acknowledgement — the ambiguous case
  that forbids replaying atomics.

Wiring happens in :meth:`attach`, which the cluster builder calls right
after boot when given ``faults=``; all windows are in seconds **after
attach** so scenarios do not depend on how long booting took.  Attach
arms master crashes, partitions and wire faults once, so declaring one
of those afterwards raises ``RuntimeError`` instead of being silently
dropped.  Heartbeat windows are read live and may still be added.

    faults = FaultInjector(seed=11)
    faults.crash_master(at=0.5, restart_after=0.5)
    faults.drop_heartbeats(2, start=1.0, duration=0.2)
    faults.fail_wire(1, start=0.3, duration=0.1, probability=0.5)
    cluster = build_cluster(8, faults=faults)

To kill a memory server, call ``cluster.kill_server(host_id)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.rdma.types import Opcode
from repro.simnet.rand import derive_rng

__all__ = ["FaultInjector"]

#: wire faults hit the one-sided data path only — RPC SENDs carry the
#: control plane, whose faults are partitions and master crashes
_DATA_OPCODES = frozenset({
    Opcode.RDMA_READ,
    Opcode.RDMA_WRITE,
    Opcode.ATOMIC_CAS,
    Opcode.ATOMIC_FAA,
})


@dataclass
class _Window:
    """One fault window: [start, end) in post-attach simulated seconds."""

    start: float
    end: float
    #: wire windows: how likely each op in the window fails
    probability: float = 1.0
    #: wire windows: "launch" fails before the op leaves the NIC;
    #: "ack" lets the remote side apply it, then loses the completion
    where: str = "launch"
    #: cap on injections from this window (None = unlimited)
    times: Optional[int] = None
    fired: int = 0

    def open_at(self, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        return self.times is None or self.fired < self.times


class FaultInjector:
    """A seeded, scheduled source of failures for one cluster."""

    def __init__(self, seed: int = 7):
        self.seed = seed
        self._rng = derive_rng(seed, "fault-injector")
        #: (at, restart_after, shard) triples
        self._master_crashes: list[tuple[float, Optional[float], int]] = []
        self._heartbeat: dict[int, list[_Window]] = {}
        self._wire: dict[int, list[_Window]] = {}
        #: (window, blocked(src, dst)) pairs; see :meth:`partition`
        self._partitions: list = []
        self._cluster = None
        self._t0 = 0.0
        #: injection timeline: ``(sim_time, message)`` pairs
        self.log: list[tuple[float, str]] = []
        self.injected = {"heartbeats": 0, "wire": 0, "master_crashes": 0,
                         "partition": 0}

    # -- schedule declaration ------------------------------------------------

    def _unarmed(self, what: str) -> None:
        """Refuse a fault that :meth:`attach` would no longer arm."""
        if self._cluster is not None:
            raise RuntimeError(
                f"{what} must be declared before attach(): the injector is "
                f"already armed and would silently drop it")

    def crash_master(self, at: float,
                     restart_after: Optional[float] = None,
                     shard: int = 0) -> "FaultInjector":
        """Fail-stop one metadata shard's master *at* seconds in;
        optionally restart it *restart_after* seconds later.

        The crash loses every piece of that shard's in-memory state —
        namespace slice, membership, in-flight repair — and tears down
        every control-plane connection to it; other shards keep
        serving.  The restart replays the shard's write-ahead log and
        runs the recovery protocol (epoch bump, re-registration grace,
        repair resumption).
        """
        self._unarmed("crash_master")
        if restart_after is not None and restart_after <= 0:
            raise ValueError("restart_after must be positive")
        self._master_crashes.append((at, restart_after, shard))
        return self

    def partition(self, groups, start: float,
                  duration: float) -> "FaultInjector":
        """Split the fabric: hosts in different *groups* cannot exchange
        messages during ``[start, start + duration)``.

        *groups* is a list of host-id lists.  Hosts not listed in any
        group keep full connectivity.  The split is symmetric.
        """
        self._unarmed("partition")
        membership: dict[int, int] = {}
        for index, group in enumerate(groups):
            for host_id in group:
                if host_id in membership:
                    raise ValueError(f"host {host_id} is in two groups")
                membership[host_id] = index

        def blocked(src: int, dst: int) -> bool:
            return (
                src in membership and dst in membership
                and membership[src] != membership[dst]
            )

        self._partitions.append(
            (_Window(start, start + duration), blocked,
             f"partition {groups}")
        )
        return self

    def drop_heartbeats(self, host_id: int, start: float,
                        duration: float) -> "FaultInjector":
        """Silently skip every heartbeat in the window — the server
        stays healthy but the master's lease expires."""
        self._heartbeat.setdefault(host_id, []).append(
            _Window(start, start + duration)
        )
        return self

    def fail_wire(self, host_id: int, start: float, duration: float,
                  probability: float = 1.0,
                  times: Optional[int] = None,
                  where: str = "launch") -> "FaultInjector":
        """Fail one-sided operations *launched by host_id* in the window
        with a completion error (the QP goes to ERROR, like real RC).

        ``where="launch"`` (default) drops the op before it reaches the
        remote NIC — nothing is applied.  ``where="ack"`` lets the
        remote side execute the op and loses only the acknowledgement:
        the launcher sees the same completion error, but a one-sided
        WRITE has landed and an atomic *has* mutated the remote word —
        the case that makes blind atomic replay double-apply.
        """
        self._unarmed("fail_wire")
        if where not in ("launch", "ack"):
            raise ValueError(f"unknown wire fault point {where!r}")
        self._wire.setdefault(host_id, []).append(
            _Window(start, start + duration, probability=probability,
                    times=times, where=where)
        )
        return self

    # -- wiring --------------------------------------------------------------

    def attach(self, cluster) -> "FaultInjector":
        """Arm the schedule against a booted cluster."""
        self._cluster = cluster
        self._t0 = cluster.sim.now
        for server in cluster.servers.values():
            server.faults = self
        for host_id, windows in self._wire.items():
            if any(w.where == "launch" for w in windows):
                cluster.nics[host_id].fault_hook = self._wire_hook(host_id)
            if any(w.where == "ack" for w in windows):
                cluster.nics[host_id].ack_fault_hook = self._ack_hook(host_id)
        for index, (at, restart_after, shard) in enumerate(
            sorted(self._master_crashes,
                   key=lambda c: (c[0], c[2]))
        ):
            cluster.sim.process(
                self._master_crash_proc(at, restart_after, shard),
                name=f"fault-crash-master-{index}",
            )
        if self._partitions:
            # arming the filter also arms the NIC-side partition
            # watchdogs; it stays None otherwise so partition-free runs
            # carry zero extra timers
            cluster.net.fault_filter = self._partition_filter
        return self

    # -- hooks (consulted by the components) ---------------------------------

    def drops_heartbeat(self, host_id: int) -> bool:
        """Should this heartbeat round be skipped?"""
        now = self._now()
        for window in self._heartbeat.get(host_id, ()):
            if window.open_at(now):
                window.fired += 1
                self.injected["heartbeats"] += 1
                self._note(f"dropped heartbeat from server {host_id}")
                return True
        return False

    def _wire_hook(self, host_id: int):
        def hook(_launch_host: int, wr) -> str:
            return self._wire_fault(host_id, wr, "launch")

        return hook

    def _ack_hook(self, host_id: int):
        def hook(_launch_host: int, wr) -> str:
            return self._wire_fault(host_id, wr, "ack")

        return hook

    def _wire_fault(self, host_id: int, wr, where: str) -> str:
        if wr.opcode not in _DATA_OPCODES:
            return ""
        now = self._now()
        for window in self._wire.get(host_id, ()):
            if window.where != where:
                continue
            if not window.open_at(now):
                continue
            if self._rng.random() >= window.probability:
                continue
            window.fired += 1
            self.injected["wire"] += 1
            self._note(
                f"failed {wr.opcode.name} launched by host {host_id} "
                f"({'before launch' if where == 'launch' else 'ack lost'})"
            )
            return f"injected wire fault on host {host_id} ({where})"
        return ""

    # -- internals -----------------------------------------------------------

    def _now(self) -> float:
        assert self._cluster is not None, "attach() the injector first"
        return self._cluster.sim.now - self._t0

    def _note(self, message: str) -> None:
        self.log.append((self._cluster.sim.now, message))

    def _master_crash_proc(self, at: float, restart_after: Optional[float],
                           shard: int):
        yield self._cluster.sim.timeout(at)
        master = self._cluster.masters[shard]
        if master is None or not master.alive:
            return
        self.injected["master_crashes"] += 1
        self._note(f"crashed the master (shard {shard})")
        self._cluster.crash_master(shard)
        if restart_after is None:
            return
        yield self._cluster.sim.timeout(restart_after)
        self._note(f"restarting the master (shard {shard})")
        yield from self._cluster.restart_master(shard)
        self._note(f"master restarted (shard {shard})")

    def _partition_filter(self, src: int, dst: int) -> bool:
        now = self._now()
        for window, blocked, label in self._partitions:
            if not window.open_at(now):
                continue
            if not blocked(src, dst):
                continue
            if window.fired == 0:
                self._note(f"{label} started eating traffic")
            window.fired += 1
            self.injected["partition"] += 1
            return True
        return False
