"""Synthetic graph generator.

The paper's graph experiments run on power-law web/social graphs; RMAT
(the Graph500 generator) reproduces that degree structure at any scale.
It is numpy-vectorised so benchmark-sized graphs build in milliseconds
of wall time, and seeded for reproducibility.
"""

from __future__ import annotations

import numpy as np

__all__ = ["rmat_edges"]


def rmat_edges(
    scale: int,
    edge_factor: int = 16,
    seed: int = 42,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate a Graph500-style RMAT graph.

    Returns ``(src, dst)`` arrays of ``edge_factor * 2**scale`` directed
    edges over ``2**scale`` vertices, skewed by the (a, b, c, d)
    quadrant probabilities.
    """
    if scale < 1 or scale > 30:
        raise ValueError(f"scale {scale} out of range [1, 30]")
    n_edges = edge_factor << scale
    rng = np.random.default_rng(seed)
    src = np.zeros(n_edges, dtype=np.int64)
    dst = np.zeros(n_edges, dtype=np.int64)
    for bit in range(scale):
        r1 = rng.random(n_edges)
        r2 = rng.random(n_edges)
        # quadrant choice: src bit set if r1 beyond the top half (c+d),
        # dst bit set depends on which half we landed in
        src_bit = r1 > (a + b)
        dst_bit = np.where(src_bit, r2 > (c / (c + (1 - a - b - c))), r2 > (a / (a + b)))
        src |= src_bit.astype(np.int64) << bit
        dst |= dst_bit.astype(np.int64) << bit
    return src, dst
