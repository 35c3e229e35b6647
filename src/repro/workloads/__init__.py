"""Workload generators: synthetic graphs and key-value records."""

from repro.workloads.access import zipfian_keys
from repro.workloads.graphs import rmat_edges
from repro.workloads.kv import generate_records

__all__ = [
    "generate_records",
    "rmat_edges",
    "zipfian_keys",
]
