"""TeraSort-style key-value record generation.

Records follow the TeraGen convention: a 10-byte binary key followed by
a 90-byte value, 100 bytes per record.  The generator is numpy-based so
millions of records materialize quickly, and seeded per (seed, worker)
so distributed generation is reproducible and non-overlapping.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KEY_BYTES", "VALUE_BYTES", "RECORD_BYTES", "generate_records",
           "keys_of", "is_sorted"]

KEY_BYTES = 10
VALUE_BYTES = 90
RECORD_BYTES = KEY_BYTES + VALUE_BYTES


def generate_records(count: int, seed: int = 0) -> np.ndarray:
    """Random records as a ``(count, RECORD_BYTES)`` uint8 array."""
    if count < 0:
        raise ValueError(f"negative record count {count}")
    rng = np.random.default_rng(seed)
    records = rng.integers(0, 256, size=(count, RECORD_BYTES), dtype=np.uint8)
    return records


def keys_of(records: np.ndarray) -> np.ndarray:
    """The key columns, viewable for lexicographic comparison."""
    return records[:, :KEY_BYTES]


def is_sorted(records: np.ndarray) -> bool:
    """True when records are in non-descending key order."""
    if len(records) < 2:
        return True
    keys = keys_of(records)
    # lexicographic compare of consecutive rows, vectorised: find the
    # first differing byte per adjacent pair
    prev, nxt = keys[:-1], keys[1:]
    diff = prev != nxt
    first = diff.argmax(axis=1)
    rows = np.arange(len(first))
    has_diff = diff.any(axis=1)
    le = ~has_diff | (prev[rows, first] < nxt[rows, first])
    return bool(le.all())
