"""The message-passing comparator (GraphLab/Pregel-class substrate).

Runs the *same* vertex programs as the RStore engine, but state moves
by all-gather over the kernel sockets stack: each superstep every
worker broadcasts its freshly computed slice to every other worker.
The broadcast doubles as the synchronization barrier (nobody can start
superstep k+1 before holding all k-slices), and convergence counts
piggyback on the slice messages — faithful to how message-passing
frameworks overlap sync with data exchange.

Topology is held locally per worker (such frameworks load from local
disk/HDFS at startup); only the run phase is timed, matching what the
paper's table compares.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.cluster.builder import Cluster
from repro.graph.framework import GraphComputeModel
from repro.graph.loader import Graph, partition_by_edges
from repro.net.mesh import build_full_mesh

__all__ = ["MessagePassingEngine"]

_BASE_PORT = 7400


class MessagePassingEngine:
    """BSP over TCP all-gather; the paper's state-of-the-art stand-in."""

    def __init__(
        self,
        cluster: Cluster,
        graph: Graph,
        worker_hosts: Optional[list[int]] = None,
        compute: Optional[GraphComputeModel] = None,
        tag: str = "mp",
    ):
        self.cluster = cluster
        self.graph = graph
        self.worker_hosts = worker_hosts or list(range(cluster.num_machines))
        self.compute = compute or GraphComputeModel()
        self.tag = tag
        self.parts = partition_by_edges(graph, len(self.worker_hosts))
        #: rank -> fan-in Store, created on that worker's first receive
        self._inboxes: dict = {}

    @property
    def num_workers(self) -> int:
        return len(self.worker_hosts)

    def run(self, program):
        """Execute *program* to convergence (generator); see RStore engine."""
        sim = self.cluster.sim
        # untimed setup, before t0 like the engines' connection caches
        stacks = {
            rank: self.cluster.tcp_stacks[host]
            for rank, host in enumerate(self.worker_hosts)
        }
        # stable per-tag port (str.hash is randomized across processes)
        port = _BASE_PORT + sum(self.tag.encode()) % 97
        sockets = yield from build_full_mesh(sim, stacks, port)
        results: dict[int, np.ndarray] = {}
        stats = SimpleNamespace(values=None, iterations=0, elapsed=0.0)
        t0 = sim.now
        procs = [
            sim.process(
                self._worker(rank, program, sockets, results, stats),
                name=f"{self.tag}-worker-{rank}",
            )
            for rank in range(self.num_workers)
        ]
        yield sim.all_of(procs)
        stats.elapsed = sim.now - t0
        stats.values = np.concatenate(
            [results[r] for r in range(self.num_workers)]
        )
        return stats

    def _worker(self, rank, program, sockets, results, stats):
        cpu = self.cluster.net.host(self.worker_hosts[rank]).cpu
        lo, hi = self.parts[rank]
        graph = self.graph
        n = graph.num_vertices
        workers = self.num_workers
        peers = sockets[rank]

        local = program.initial(graph, lo, hi)
        x = np.zeros(n)
        #: (sender, round) -> message; a fast peer's round k+1 slice can
        #: arrive while we still wait on a slow peer's round k
        stash: dict[tuple[int, int], tuple] = {}

        def exchange(round_no, values, changed):
            """All-gather this worker's slice; returns total changed."""
            blob = values.tobytes()
            for peer in peers.values():
                # serialize once per peer (kernel copies are charged by
                # the socket; this is the app-level marshalling)
                yield from cpu.copy(len(blob))
                yield from peer.send((rank, round_no, changed, blob))
            x[lo:hi] = values
            total = changed
            needed = {s for s in range(workers) if s != rank}
            while needed:
                hit = next(
                    (s for s in needed if (s, round_no) in stash), None
                )
                if hit is not None:
                    _s, _r, peer_changed, peer_blob = stash.pop(
                        (hit, round_no)
                    )
                    needed.discard(hit)
                else:
                    msg = yield from self._recv_any(peers, rank)
                    sender, msg_round = msg[0], msg[1]
                    if msg_round != round_no:
                        stash[(sender, msg_round)] = msg
                        continue
                    _s, _r, peer_changed, peer_blob = msg
                    needed.discard(sender)
                plo, phi = self.parts[_s]
                x[plo:phi] = np.frombuffer(peer_blob, dtype=np.float64)
                total += peer_changed
            return total

        yield from exchange(0, local, 0)
        iteration = 0
        while True:
            yield from cpu.run(
                self.compute.baseline_superstep_cost(
                    int(graph.indptr[hi] - graph.indptr[lo]), hi - lo
                )
            )
            local, changed = program.apply(graph, x, lo, hi)
            total = yield from exchange(iteration + 1, local, changed)
            iteration += 1
            if program.done(iteration, total):
                break
        results[rank] = local
        if rank == 0:
            stats.iterations = iteration

    def _recv_any(self, peers, rank):
        """Receive the next slice message from any peer (generator)."""
        # Each pairwise socket preserves order; fan-in across peers via
        # a shared inbox process started lazily per worker.
        box = self._inboxes.get(rank)
        if box is None:
            from repro.simnet.resources import Store

            box = Store(self.cluster.sim)
            self._inboxes[rank] = box

            def pump(sock):
                while True:
                    msg = yield from sock.recv()
                    if msg is None:
                        return
                    box.put(msg)

            for sock in peers.values():
                self.cluster.sim.process(pump(sock))
        msg = yield box.get()
        return msg
