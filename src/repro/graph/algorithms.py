"""Vertex programs: the algorithm layer shared by both engines.

A program is pure computation over numpy arrays — it never talks to the
network.  The engines (RStore-backed or message-passing) own all data
movement, so a benchmark comparing them compares substrates, not
algorithm implementations.

Contract: ``apply(graph, x, lo, hi)`` computes the next values of the
vertices in ``[lo, hi)`` from the full current vector ``x`` and the
graph's in-edge CSR, returning ``(new_local, changed_count)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PageRankProgram",
    "BfsProgram",
    "SsspProgram",
    "WccProgram",
]

UNREACHED = np.float64(np.inf)


def _segment_reduce_min(indptr, values):
    """Per-row minimum of a CSR-segmented value array (inf for empty)."""
    out = np.full(len(indptr) - 1, np.inf)
    nonempty = np.flatnonzero(np.diff(indptr) > 0)
    if len(values) == 0 or len(nonempty) == 0:
        return out
    out[nonempty] = np.minimum.reduceat(values, indptr[nonempty])
    return out


class PageRankProgram:
    """Pull-style PageRank with uniform handling of dangling mass."""

    name = "pagerank"
    needs_weights = False
    damping = 0.85
    #: supersteps run (PageRank is iteration-bounded, not converged)
    iterations = 10

    def initial(self, graph, lo: int, hi: int) -> np.ndarray:
        return np.full(hi - lo, 1.0 / graph.num_vertices)

    def apply(self, graph, x: np.ndarray, lo: int, hi: int):
        # contribution of every vertex: rank / out-degree (0 if dangling)
        contrib = np.where(graph.out_degrees > 0, x / np.maximum(graph.out_degrees, 1), 0.0)
        dangling = x[graph.out_degrees == 0].sum()
        indptr, sources, _w = graph.slice_csr(lo, hi)
        gathered = contrib[sources]
        sums = np.zeros(hi - lo)
        nonempty = np.flatnonzero(np.diff(indptr) > 0)
        if len(gathered) and len(nonempty):
            sums[nonempty] = np.add.reduceat(gathered, indptr[nonempty])
        n = graph.num_vertices
        new = (1.0 - self.damping) / n + self.damping * (sums + dangling / n)
        return new, hi - lo  # ranks always "change"; iteration-bounded

    def done(self, iteration: int, total_changed: int) -> bool:
        return iteration >= self.iterations


class _MinPlusProgram:
    """Shared shape of BFS/SSSP: iterate x_v = min(x_v, min_u x_u + w)."""

    needs_weights = False
    max_iterations = 10_000
    #: the vertex distances are measured from
    source = 0

    def initial(self, graph, lo: int, hi: int) -> np.ndarray:
        values = np.full(hi - lo, UNREACHED)
        if lo <= self.source < hi:
            values[self.source - lo] = 0.0
        return values

    def apply(self, graph, x: np.ndarray, lo: int, hi: int):
        indptr, sources, weights = graph.slice_csr(lo, hi)
        costs = self.edge_costs(weights, len(sources))
        candidate = _segment_reduce_min(indptr, x[sources] + costs)
        old = x[lo:hi]
        new = np.minimum(old, candidate)
        changed = int((new < old).sum())
        return new, changed

    def done(self, iteration: int, total_changed: int) -> bool:
        return total_changed == 0 or iteration >= self.max_iterations


class BfsProgram(_MinPlusProgram):
    """Level-synchronous BFS (hop distances from a source)."""

    name = "bfs"

    def edge_costs(self, weights, count):
        return 1.0


class SsspProgram(_MinPlusProgram):
    """Bellman-Ford style single-source shortest paths."""

    name = "sssp"
    needs_weights = True

    def edge_costs(self, weights, count):
        if weights is None:
            raise ValueError("SSSP needs edge weights")
        return weights


class WccProgram:
    """Weakly connected components by min-label propagation.

    Note: propagation follows edge direction; for true *weak*
    components, feed the engine a symmetrized graph.
    """

    name = "wcc"
    needs_weights = False
    max_iterations = 10_000

    def initial(self, graph, lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi, dtype=np.float64)

    def apply(self, graph, x: np.ndarray, lo: int, hi: int):
        indptr, sources, _w = graph.slice_csr(lo, hi)
        candidate = _segment_reduce_min(indptr, x[sources])
        old = x[lo:hi]
        new = np.minimum(old, candidate)
        changed = int((new < old).sum())
        return new, changed

    def done(self, iteration: int, total_changed: int) -> bool:
        return total_changed == 0 or iteration >= self.max_iterations
