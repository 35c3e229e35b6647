"""RGraph: the paper's distributed graph-processing framework.

A partitioned bulk-synchronous engine whose vertex state lives in
RStore regions.  Each superstep a worker gathers the current state
vector with large one-sided reads (striped across every memory server,
so the gather runs at aggregate fabric bandwidth), applies the vertex
program over its partition with an explicit per-edge CPU cost, scatters
its slice back with one-sided writes, and synchronizes through the
master.  The comparison baseline
(:class:`~repro.graph.baseline.MessagePassingEngine`) runs the *same*
vertex programs over TCP all-gather exchanges — the substrate is the
only difference, which is exactly the paper's claim.
"""

from repro.graph.algorithms import (
    BfsProgram,
    PageRankProgram,
    SsspProgram,
    WccProgram,
)
from repro.graph.baseline import MessagePassingEngine
from repro.graph.framework import GraphComputeModel, RStoreGraphEngine
from repro.graph.loader import Graph

__all__ = [
    "BfsProgram",
    "Graph",
    "GraphComputeModel",
    "MessagePassingEngine",
    "PageRankProgram",
    "RStoreGraphEngine",
    "SsspProgram",
    "WccProgram",
]
