"""Access-pattern generator: zipfian key popularity.

Key-value benchmarks live or die by their skew; the YCSB convention the
era's papers used is a zipfian key popularity.  The sampler is
numpy-vectorised and seeded.
"""

from __future__ import annotations

import numpy as np

__all__ = ["zipfian_keys"]


def zipfian_keys(
    count: int, keyspace: int, theta: float = 0.99, seed: int = 0
) -> np.ndarray:
    """Sample *count* key indices from a zipfian over ``[0, keyspace)``.

    ``theta`` is the YCSB skew parameter (0.99 is their default: the
    hottest key draws a few percent of all traffic).  Uses inverse-CDF
    sampling over the exact zeta weights, which is fine for the
    keyspace sizes a simulation touches.
    """
    if keyspace < 1:
        raise ValueError(f"keyspace must be positive, got {keyspace}")
    if count < 0:
        raise ValueError(f"negative count {count}")
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.power(np.arange(1, keyspace + 1), theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(count)
    return np.searchsorted(cdf, draws, side="left").astype(np.int64)
