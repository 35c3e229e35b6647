"""The RStore-backed BSP engine.

Data layout in the store (for an engine tagged ``g``):

================  =========================  ===========================
region            size                       contents
================  =========================  ===========================
``g.indptr``      (n+1) * 8                  in-edge CSR row pointers
``g.sources``     m * 8                      in-edge sources
``g.weights``     m * 8 (optional)           edge weights
``g.outdeg``      n * 8                      out-degrees
``g.state0/1``    n * 8 each                 double-buffered vertex state
================  =========================  ===========================

Workers fetch their topology slice once at setup, then per superstep:
gather the full state vector with one-sided reads (striped over every
memory server — the aggregate-bandwidth path), apply the vertex program
(explicit CPU cost), scatter their slice, and detect convergence
entirely on one-sided atomics — a :class:`~repro.coord.SenseBarrier`
plus a cumulative :class:`~repro.coord.AtomicCounter`, no per-superstep
reduction RPC through the master.  After setup the master is never
contacted again; ``stats.steady_state_master_calls`` (asserted
zero in tests) proves it.

The convergence protocol per superstep: every worker FAAs its change
count into the shared counter, waits at the barrier (all contributions
are in), reads the cumulative total once and differences it against the
previous round's total, then waits at the barrier again so nobody's
next-round FAA races a straggler's read.  The counter is never reset —
monotonic accumulation plus local differencing sidesteps the
who-zeroes-it race entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.cluster.builder import Cluster
from repro.coord import AtomicCounter, SenseBarrier
from repro.graph.loader import Graph, partition_by_edges
from repro.simnet.config import MiB

__all__ = ["GraphComputeModel", "RStoreGraphEngine", "write_array", "read_bytes"]

_IO_CHUNK = 4 * MiB


@dataclass
class GraphComputeModel:
    """Explicit CPU cost of graph computation (wall time is not data).

    ``per_edge_s`` is the cost of a bulk CSR kernel over in-memory
    arrays (a few ns/edge, what RStore's memory-like API enables).
    ``baseline_message_per_edge_s`` is the *additional* per-edge cost a
    gather/scatter message-passing engine pays — message construction,
    combiner hash updates, dispatch — calibrated to published
    GraphLab/PowerGraph PageRank rates (~100 ns/edge end-to-end on 2015
    hardware; we attribute ~3 ns to the arithmetic both engines share
    and the rest, conservatively trimmed to 15 ns, to the machinery).
    """

    #: gather + multiply-accumulate per in-edge (bulk array kernel)
    per_edge_s: float = 3e-9
    #: apply/update per vertex per superstep
    per_vertex_s: float = 12e-9
    #: extra per-edge message machinery in the message-passing baseline
    baseline_message_per_edge_s: float = 15e-9

    def superstep_cost(self, num_edges: int, num_vertices: int) -> float:
        return num_edges * self.per_edge_s + num_vertices * self.per_vertex_s

    def baseline_superstep_cost(self, num_edges: int, num_vertices: int) -> float:
        return (
            num_edges * (self.per_edge_s + self.baseline_message_per_edge_s)
            + num_vertices * self.per_vertex_s
        )


def write_array(mapping, offset: int, data: bytes):
    """Write a large byte blob through the staging pool, chunked (generator)."""
    pos = 0
    while pos < len(data):
        piece = data[pos : pos + _IO_CHUNK]
        yield from mapping.write(offset + pos, piece)
        pos += len(piece)


def read_bytes(mapping, offset: int, length: int):
    """Chunked read through the staging pool (generator); returns bytes."""
    parts = []
    pos = 0
    while pos < length:
        take = min(_IO_CHUNK, length - pos)
        parts.append((yield from mapping.read(offset + pos, take)))
        pos += take
    return b"".join(parts)


class _PartitionView:
    """A worker's local view: global metadata plus its CSR slice."""

    def __init__(self, num_vertices, lo, hi, indptr_local, sources, weights,
                 out_degrees):
        self.num_vertices = num_vertices
        self.lo = lo
        self.hi = hi
        self._indptr_local = indptr_local
        self._sources = sources
        self._weights = weights
        self.out_degrees = out_degrees

    @property
    def num_local_edges(self) -> int:
        return len(self._sources)

    def slice_csr(self, lo, hi):
        assert lo == self.lo and hi == self.hi, "view holds exactly one slice"
        return self._indptr_local, self._sources, self._weights


class RStoreGraphEngine:
    """Distributed BSP graph processing on the memory-like API."""

    def __init__(
        self,
        cluster: Cluster,
        graph: Graph,
        worker_hosts: Optional[list[int]] = None,
        tag: str = "g",
    ):
        self.cluster = cluster
        self.graph = graph
        self.worker_hosts = worker_hosts or list(range(cluster.num_machines))
        self.compute = GraphComputeModel()
        self.tag = tag
        self.parts = partition_by_edges(graph, len(self.worker_hosts))
        self.load_elapsed: Optional[float] = None
        self._loaded = False

    @property
    def num_workers(self) -> int:
        return len(self.worker_hosts)

    # -- load phase ----------------------------------------------------------

    def load(self):
        """Ship the graph into the store (generator, coordinator-driven)."""
        sim = self.cluster.sim
        graph, tag = self.graph, self.tag
        n, m = graph.num_vertices, graph.num_edges
        client = self.cluster.client(self.worker_hosts[0])
        t0 = sim.now
        layout = {
            f"{tag}.indptr": graph.indptr.astype(np.int64).tobytes(),
            f"{tag}.sources": graph.sources.astype(np.int64).tobytes(),
            f"{tag}.outdeg": graph.out_degrees.astype(np.int64).tobytes(),
        }
        if graph.weights is not None:
            layout[f"{tag}.weights"] = graph.weights.astype(np.float64).tobytes()
        for name, blob in layout.items():
            yield from client.alloc(name, len(blob))
            mapping = yield from client.map(name)
            yield from write_array(mapping, 0, blob)
        for state in ("state0", "state1"):
            yield from client.alloc(f"{tag}.{state}", max(n * 8, 8))
        self.load_elapsed = sim.now - t0
        self._loaded = True

    # -- run phase ---------------------------------------------------------------

    def run(self, program):
        """Execute *program* to convergence (generator).

        Returns a namespace with ``values`` (the final vector),
        ``iterations``, ``elapsed`` (simulated seconds of the iteration
        phase) and ``setup_elapsed`` (worker setup: partition fetch,
        mapping, initial scatter).  The split mirrors what the paper's
        tables report — steady-state computation, not connection setup.
        """
        if not self._loaded:
            # the job driver: loading the graph on first use is the
            # sanctioned control/data phase transition, and everything
            # through worker setup is billed to setup_elapsed below —
            # the steady-state loop never takes this hop
            yield from self.load()  # repro-lint: allow[RL001]
        sim = self.cluster.sim
        results: dict[int, np.ndarray] = {}
        stats = SimpleNamespace(values=None, iterations=0, elapsed=0.0,
                                setup_elapsed=0.0,
                                steady_state_master_calls=0)

        t_setup = sim.now
        # Coordination regions (control path, once): the superstep
        # barrier and the cumulative change counter every worker FAAs
        # into.  After this point convergence detection never touches
        # the master.
        coordinator = self.cluster.client(self.worker_hosts[0])
        yield from SenseBarrier.create(
            coordinator, f"{self.tag}.bsp", parties=self.num_workers
        )
        yield from AtomicCounter.create(coordinator, f"{self.tag}.changed")
        contexts: dict[int, SimpleNamespace] = {}
        setup = [
            sim.process(
                self._worker_setup(rank, program, contexts),
                name=f"{self.tag}-setup-{rank}",
            )
            for rank in range(self.num_workers)
        ]
        yield sim.all_of(setup)
        stats.setup_elapsed = sim.now - t_setup
        calls_after_setup = self._master_calls()

        t0 = sim.now
        procs = [
            sim.process(
                self._worker_loop(contexts[rank], program, results, stats),
                name=f"{self.tag}-worker-{rank}",
            )
            for rank in range(self.num_workers)
        ]
        yield sim.all_of(procs)
        stats.elapsed = sim.now - t0
        stats.steady_state_master_calls = (
            self._master_calls() - calls_after_setup
        )
        full = np.concatenate([results[r] for r in range(self.num_workers)])
        stats.values = full
        return stats

    def _master_calls(self) -> int:
        """Total control-path RPCs issued by the worker clients."""
        clients = {self.cluster.client(h) for h in self.worker_hosts}
        return sum(client.master_calls for client in clients)

    def _worker_setup(self, rank: int, program, contexts: dict):
        """Control path: fetch topology, map state, register buffers."""
        tag = self.tag
        host_id = self.worker_hosts[rank]
        client = self.cluster.client(host_id)
        lo, hi = self.parts[rank]
        n = self.graph.num_vertices

        part = yield from self._fetch_partition(client, program, lo, hi)
        state0 = yield from client.map(f"{tag}.state0")
        state1 = yield from client.map(f"{tag}.state1")
        barrier = yield from SenseBarrier.open(
            client, f"{tag}.bsp", parties=self.num_workers
        )
        counter = yield from AtomicCounter.open(client, f"{tag}.changed")
        gather_mr = yield from client.alloc_local(max(n * 8, 8))
        scatter_mr = yield from client.alloc_local(max((hi - lo) * 8, 8))
        contexts[rank] = SimpleNamespace(
            rank=rank,
            client=client,
            cpu=self.cluster.net.host(host_id).cpu,
            lo=lo,
            hi=hi,
            part=part,
            state=[state0, state1],
            barrier=barrier,
            counter=counter,
            gather_mr=gather_mr,
            scatter_mr=scatter_mr,
        )

    def _worker_loop(self, ctx, program, results: dict, stats):
        cpu = ctx.cpu
        client = ctx.client
        lo, hi, part = ctx.lo, ctx.hi, ctx.part
        n = self.graph.num_vertices

        def scatter_async(mapping, values):
            """Submit this slice's scatter; returns its future."""
            blob = values.tobytes()
            yield from cpu.copy(len(blob))
            ctx.scatter_mr.buffer.write(0, blob)
            batch = client.batch()
            fut = batch.write_from(
                mapping, ctx.scatter_mr, ctx.scatter_mr.addr, lo * 8,
                len(blob)
            )
            yield from batch.flush()
            return fut

        local = program.initial(part, lo, hi)
        fut = yield from scatter_async(ctx.state[0], local)
        yield from fut.wait()
        # everyone's initial scatter is visible before the first gather
        yield from ctx.barrier.wait()

        cur = 0
        iteration = 0
        seen_total = 0
        while True:
            step_span = client.obs.tracer.span(
                "app.graph.superstep", kind="app", rank=ctx.rank,
                iteration=iteration,
            )
            # gather every remote vertex stripe with one batched flush:
            # the striped pieces go out per-QP under doorbell batching
            # instead of trickling through the synchronous window
            gather = client.batch()
            gfut = gather.read_into(
                ctx.state[cur], ctx.gather_mr, ctx.gather_mr.addr, 0, n * 8
            )
            yield from gather.flush()
            yield from gfut.wait()
            x = np.frombuffer(
                ctx.gather_mr.buffer.read(0, n * 8), dtype=np.float64
            )
            yield from cpu.run(
                self.compute.superstep_cost(part.num_local_edges, hi - lo)
            )
            local, changed = program.apply(part, x, lo, hi)
            # overlap the scatter of this slice with the convergence
            # FAA; both must only be visible before the barrier
            sfut = yield from scatter_async(ctx.state[1 - cur], local)
            yield from ctx.counter.add(int(changed))
            yield from sfut.wait()
            yield from ctx.barrier.wait()
            cumulative = yield from ctx.counter.read()
            total = cumulative - seen_total
            seen_total = cumulative
            iteration += 1
            step_span.finish(changed=total)
            if program.done(iteration, total):
                break
            # keep next round's FAAs from racing a straggler's read
            yield from ctx.barrier.wait()
            cur = 1 - cur

        results[ctx.rank] = local
        if ctx.rank == 0:
            stats.iterations = iteration

    def _fetch_partition(self, client, program, lo: int, hi: int):
        """Pull this worker's topology slice out of the store (generator)."""
        tag = self.tag
        n = self.graph.num_vertices

        indptr_map = yield from client.map(f"{tag}.indptr")
        blob = yield from read_bytes(indptr_map, lo * 8, (hi - lo + 1) * 8)
        indptr_global = np.frombuffer(blob, dtype=np.int64)
        e_lo, e_hi = int(indptr_global[0]), int(indptr_global[-1])
        indptr_local = indptr_global - e_lo

        sources_map = yield from client.map(f"{tag}.sources")
        blob = yield from read_bytes(sources_map, e_lo * 8, (e_hi - e_lo) * 8)
        sources = np.frombuffer(blob, dtype=np.int64)

        weights = None
        if getattr(program, "needs_weights", False):
            weights_map = yield from client.map(f"{tag}.weights")
            blob = yield from read_bytes(weights_map, e_lo * 8, (e_hi - e_lo) * 8)
            weights = np.frombuffer(blob, dtype=np.float64)

        outdeg_map = yield from client.map(f"{tag}.outdeg")
        blob = yield from read_bytes(outdeg_map, 0, n * 8)
        out_degrees = np.frombuffer(blob, dtype=np.int64)

        return _PartitionView(
            n, lo, hi, indptr_local, sources, weights, out_degrees
        )
