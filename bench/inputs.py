"""Workload inputs: every op sequence is a pure function of ``--seed``.

The simulator receives only the generated ops; nothing here imports
``repro``.  Streams are keyed by ``(seed, workload, client, round)``
so a run of round 1 alone (the traced run) sees exactly the ops the
full run's round 1 saw.
"""

from __future__ import annotations

import numpy as np

#: stream ids — one per workload family, stable across releases
RAW, BULK, KV, CHURN, TXN = 1, 2, 3, 4, 5
#: rounds at or above this index are warm-up, never measured
WARMUP = 1000
#: the stream initial region contents and source buffers are drawn from
INITIAL = WARMUP + 1

#: rounds the measured phase is split into (each bracketed by a
#: calibration slice; the host metric is taken over the rounds)
ROUNDS = 28

#: logical ops per host second each workload sustained on the 2-core
#: reference box at the commit that introduced the benchmark; the op
#: count of a run is ``rate * --seconds``, rounded to whole rounds.
#: To re-size, run ``--trace 1`` and read ``bench.host_raw_ops_per_s``.
REFERENCE_RATE = {
    "raw_small": 15500,
    "bulk_stream": 1550,
    "kv_read_onesided": 5150,
    "kv_update_adaptive": 3900,
    "kv_read_sanitized": 2800,
    "control_churn": 500,
    "txn_bank": 1250,
}


#: a sanitized workload's unsanitized twin, run beside it in the traced
#: run so the sanitizer's whole cost is one ratio
TWIN = {"kv_read_sanitized": "kv_read_onesided"}


def ops_per_round(workload: str, seconds: float) -> int:
    """Op count of one round for a run sized to *seconds*."""
    return max(8, round(REFERENCE_RATE[workload] * seconds / ROUNDS))


def warmup_ops(per_round: int) -> int:
    """Op count of the unmeasured warm-up round that ends set-up."""
    return max(8, per_round // 2)


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """The generator of one ``(seed, stream…)`` path."""
    return np.random.default_rng([int(seed), *path])


def zipf_ranks(rng: np.random.Generator, count: int, keyspace: int,
               theta: float) -> np.ndarray:
    """*count* popularity ranks (0 = hottest) from a zipfian."""
    weights = 1.0 / np.power(np.arange(1, keyspace + 1), theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return np.searchsorted(cdf, rng.random(count), side="left")


# -- raw_small ---------------------------------------------------------------

#: op-count shares: blocking read / batched read / write / FAA
RAW_MIX = (0.40, 0.40, 0.15, 0.05)


def raw_small_ops(seed: int, rnd: int, n_ops: int, region_bytes: int,
                  op_bytes: int = 128, max_depth: int = 32) -> list:
    """One round of raw ops, exactly *n_ops* logical ops.

    Items: ``("read", off)``, ``("batch", [off, …])`` (1 to *max_depth*
    reads posted behind one doorbell — each read is one op),
    ``("write", off, payload)``, ``("faa", off, delta)``.  Batch depths
    are drawn uniformly: at one fixed depth every batch takes the same
    simulated time, and the latency tail would be a constant.
    """
    rng = rng_for(seed, RAW, rnd)
    read, batched, write, faa = RAW_MIX
    # a batch item carries (max_depth + 1) / 2 ops on average, so it is
    # drawn that much rarer than its share of the ops
    singles = read + write + faa
    p_batch = batched / ((max_depth + 1) / 2 * singles + batched)
    cuts = np.cumsum([p_batch, (1 - p_batch) * read / singles,
                      (1 - p_batch) * write / singles])
    kinds = np.searchsorted(cuts, rng.random(n_ops), side="right").tolist()
    depths = rng.integers(1, max_depth + 1, n_ops).tolist()
    slots = region_bytes // op_bytes
    offsets = (rng.integers(0, slots, n_ops) * op_bytes).tolist()
    deltas = rng.integers(1, 1000, n_ops).tolist()
    blob = rng.bytes(64 * 1024)
    starts = rng.integers(0, len(blob) - op_bytes, n_ops).tolist()
    ops: list = []
    cursor = 0
    for i, kind in enumerate(kinds):
        if cursor == n_ops:
            break
        if kind == 0:
            take = min(depths[i], n_ops - cursor)
            ops.append(("batch", offsets[cursor:cursor + take]))
            cursor += take
            continue
        off = offsets[cursor]
        cursor += 1
        if kind == 1:
            ops.append(("read", off))
        elif kind == 2:
            ops.append(("write", off,
                        blob[starts[i]:starts[i] + op_bytes]))
        else:
            ops.append(("faa", off, deltas[i]))
    return ops


# -- bulk_stream -------------------------------------------------------------

def bulk_ops(seed: int, rank: int, rnd: int, n_ops: int, stripes: int,
             clients: int, source_slots: int,
             read_share: float = 0.75) -> list:
    """``(is_read, stripe, source_slot)``; writes stay on stripes
    ``≡ rank (mod clients)`` so the final image has one writer per byte."""
    rng = rng_for(seed, BULK, rank, rnd)
    is_read = (rng.random(n_ops) < read_share).tolist()
    stripe = rng.integers(0, stripes, n_ops).tolist()
    slot = rng.integers(0, source_slots, n_ops).tolist()
    return [
        (r, s if r else (s // clients) * clients + rank, k)
        for r, s, k in zip(is_read, stripe, slot)
    ]


def bulk_source(seed: int, rank: int, nbytes: int) -> bytes:
    """The bytes a bulk client streams from (its local buffer)."""
    return rng_for(seed, BULK, rank, INITIAL).bytes(nbytes)


# -- kv_* --------------------------------------------------------------------

def kv_ops(seed: int, rank: int, rnd: int, n_ops: int, keys: int,
           clients: int, theta: float, get_share: float) -> list:
    """``(is_get, key)``; a client only ever puts keys ``≡ rank``.

    Key *k* is the *k*-th hottest for every seed: where the hot keys
    sit in the table decides probe depths and so most of the simulated
    result, and a seed is meant to resample the op stream, not to pick
    a different table.
    """
    rng = rng_for(seed, KV, rank, rnd)
    key = zipf_ranks(rng, n_ops, keys, theta)
    is_get = rng.random(n_ops) < get_share
    own = (key // clients) * clients + rank
    own = np.where(own >= keys, own - clients, own)
    key = np.where(is_get, key, own)
    return list(zip(is_get.tolist(), key.tolist()))


# -- control_churn -----------------------------------------------------------

def churn_ops(seed: int, rank: int, rnd: int, n_ops: int,
              nbytes: int = 64) -> list:
    """``(stripes, payload)`` per alloc/map/write/free cycle: regions of
    2 to 6 stripes (4 on average), and the bytes written into them."""
    rng = rng_for(seed, CHURN, rank, rnd)
    stripes = rng.integers(2, 7, n_ops).tolist()
    blob = rng.bytes(n_ops * nbytes)
    return [(stripes[i], blob[i * nbytes:(i + 1) * nbytes])
            for i in range(n_ops)]


# -- txn_bank ----------------------------------------------------------------

def txn_ops(seed: int, rank: int, rnd: int, n_ops: int, accounts: int,
            theta: float) -> list:
    """``(src, dst, amount)`` two-key transfers, ``src != dst``."""
    rng = rng_for(seed, TXN, rank, rnd)
    src = zipf_ranks(rng, n_ops, accounts, theta)
    dst = zipf_ranks(rng, n_ops, accounts, theta)
    dst = np.where(dst == src, (dst + 1) % accounts, dst)
    amount = rng.integers(1, 6, n_ops)
    return list(zip(src.tolist(), dst.tolist(), amount.tolist()))
