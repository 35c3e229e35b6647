"""Shared machinery for the randomized data-path harness.

A *schedule* is a deterministic list of operation groups derived from
one integer seed: a random mix of read / write / faa / cas with random
sizes and offsets, split randomly between synchronous ops and IoBatch
windows of random depth.  :func:`run_schedule` executes the schedule
against a simulated cluster while mirroring every mutation into a
plain in-memory reference model, asserting byte-for-byte equivalence
op by op and on a final full readback.

Layout discipline: the first :data:`ATOMIC_WORDS` 8-byte words of the
region are reserved for atomics and reads/writes stay above them, so a
batch never races an atomic on the same bytes.  Within one batch the
generator refuses overlapping ranges unless both ops are reads, and
never aims two atomics at the same word — ops in one flush can
complete in any order, so only conflict-free batches have one
deterministic outcome to check against.
"""

from __future__ import annotations

import random

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import DeadlineExceededError, MasterUnavailableError
from repro.obs import obs_for
from repro.sanitize import rsan_for
from repro.simnet.config import KiB, MiB

#: the pinned seed matrix (CI runs these plus one random seed)
SEEDS = (101, 202, 303, 404, 505)

ATOMIC_WORDS = 8
#: reads and writes stay at or above this offset
DATA_BASE = ATOMIC_WORDS * 8


def harness_seeds(config) -> list[int]:
    """The seeds to run: ``--seed N`` replaces the pinned matrix."""
    override = config.getoption("--seed")
    return [override] if override is not None else list(SEEDS)


def await_steady_master(cluster, client, give_up_after: float,
                        shard: int = 0):
    """Poll one shard's cluster_stats until its master is up and done
    recovering (generator); returns the stats.

    Control calls during the outage fail with typed errors — that is
    the contract — so the poll simply absorbs them and tries again.
    """
    sim = cluster.sim
    deadline = sim.now + give_up_after
    while sim.now < deadline:
        try:
            stats = yield from client._master_call("cluster_stats",
                                                   shard=shard)
        except (MasterUnavailableError, DeadlineExceededError):
            yield sim.timeout(0.05)
            continue
        if not stats["recovering"]:
            return stats
        yield sim.timeout(0.05)
    raise AssertionError(
        f"shard {shard}'s master never settled after the fault schedule")


# -- schedule generation ------------------------------------------------------


def _clashes(start: int, end: int, ranges: list[tuple[int, int]]) -> bool:
    return any(start < e and s < end for s, e in ranges)


def _pick_range(rng: random.Random, region_size: int):
    roll = rng.random()
    if roll < 0.1:
        length = 0
    elif roll < 0.8:
        length = rng.randint(1, 2048)
    else:  # long enough to stripe across several servers
        length = rng.randint(2048, 20_000)
    length = min(length, region_size - DATA_BASE)
    offset = rng.randrange(DATA_BASE, region_size - length + 1)
    return offset, length


def _make_op(rng: random.Random, region_size: int, reads, writes, words,
             shadow):
    """One op honouring the in-batch conflict rules; None if crowded."""
    roll = rng.random()
    if roll < 0.35:  # read
        for _ in range(8):
            offset, length = _pick_range(rng, region_size)
            if not _clashes(offset, offset + length, writes):
                reads.append((offset, offset + length))
                return ("read", offset, length)
        return None
    if roll < 0.70:  # write
        for _ in range(8):
            offset, length = _pick_range(rng, region_size)
            span = (offset, offset + length)
            if not (_clashes(*span, reads) or _clashes(*span, writes)):
                writes.append(span)
                return ("write", offset, rng.randbytes(length))
        return None
    free = [w for w in range(ATOMIC_WORDS) if w not in words]
    if not free:
        return None
    word = rng.choice(free)
    words.add(word)
    if roll < 0.88:  # faa
        delta = rng.randrange(1 << 32)
        shadow[word] = (shadow[word] + delta) % (1 << 64)
        return ("faa", word * 8, delta)
    # cas — aim at the current value often enough that swaps do happen
    expected = (shadow[word] if rng.random() < 0.6
                else rng.randrange(1 << 64))
    desired = rng.randrange(1 << 64)
    if expected == shadow[word]:
        shadow[word] = desired
    return ("cas", word * 8, expected, desired)


def make_schedule(rng: random.Random, region_size: int, groups: int = 24):
    """A list of ``(mode, ops)`` groups; mode is "sync" or "batch"."""
    shadow = [0] * ATOMIC_WORDS
    schedule = []
    for _ in range(groups):
        depth = 1 if rng.random() < 0.4 else rng.randint(2, 16)
        reads: list[tuple[int, int]] = []
        writes: list[tuple[int, int]] = []
        words: set[int] = set()
        ops = []
        for _ in range(depth):
            op = _make_op(rng, region_size, reads, writes, words, shadow)
            if op is not None:
                ops.append(op)
        if ops:
            schedule.append(("sync" if depth == 1 else "batch", ops))
    return schedule


# -- the reference model ------------------------------------------------------


def apply_to_model(model: bytearray, op):
    """Apply *op* to the reference bytes; returns the expected result."""
    kind = op[0]
    if kind == "read":
        _, offset, length = op
        return bytes(model[offset:offset + length])
    if kind == "write":
        _, offset, payload = op
        model[offset:offset + len(payload)] = payload
        return len(payload)
    offset = op[1]
    old = int.from_bytes(model[offset:offset + 8], "little")
    if kind == "faa":
        new = (old + op[2]) % (1 << 64)
        model[offset:offset + 8] = new.to_bytes(8, "little")
    else:  # cas
        if old == op[2]:
            model[offset:offset + 8] = op[3].to_bytes(8, "little")
    return old


# -- execution ----------------------------------------------------------------


def run_schedule(seed: int, trace: bool = False, groups: int = 24,
                 sanitize: bool = False) -> dict:
    """Build a cluster, run the seed's schedule, check every result.

    Returns a digest (op results, final bytes, final simulated time,
    span count, race count) so callers can compare two runs of the
    same seed.  ``sanitize=True`` runs the whole schedule under RSan;
    the single sequential client is race-free by construction, so any
    report is a sanitizer bug.
    """
    rng = random.Random(seed)
    stripe = rng.choice((8, 16)) * KiB
    region_size = rng.choice((128, 192, 256)) * KiB
    schedule = make_schedule(rng, region_size, groups=groups)

    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=stripe, sanitize=sanitize),
        server_capacity=16 * MiB,
    )
    tracer = obs_for(cluster.sim).tracer
    if trace:
        tracer.enable()
    rsan = rsan_for(cluster.sim)
    client = cluster.client(1)
    model = bytearray(region_size)
    results: list = []

    def execute(mapping, op):
        kind = op[0]
        if kind == "read":
            return (yield from mapping.read(op[1], op[2]))
        if kind == "write":
            return (yield from mapping.write(op[1], op[2]))
        if kind == "faa":
            return (yield from mapping.faa(op[1], op[2]))
        return (yield from mapping.cas(op[1], op[2], op[3]))

    def enqueue(batch, mapping, op):
        kind = op[0]
        if kind == "read":
            return (yield from batch.read(mapping, op[1], op[2]))
        if kind == "write":
            return (yield from batch.write(mapping, op[1], op[2]))
        if kind == "faa":
            return batch.faa(mapping, op[1], op[2])
        return batch.cas(mapping, op[1], op[2], op[3])

    def check(op, value):
        expected = apply_to_model(model, op)
        assert value == expected, (
            f"seed {seed}: {op[0]} at {op[1]} returned {value!r}, "
            f"the model says {expected!r}"
        )
        results.append(value)

    def app():
        yield from client.alloc("harness", region_size)
        mapping = yield from client.map("harness")
        for mode, ops in schedule:
            if mode == "sync":
                for op in ops:
                    value = yield from execute(mapping, op)
                    check(op, value)
            else:
                batch = client.batch()
                for op in ops:
                    yield from enqueue(batch, mapping, op)
                yield from batch.flush()
                values = yield from batch.wait_all()
                for op, value in zip(ops, values):
                    check(op, value)
        return (yield from mapping.read(0, region_size))

    final = cluster.run_app(app())
    assert bytes(final) == bytes(model), (
        f"seed {seed}: final readback diverged from the reference model"
    )
    if sanitize:
        assert not rsan.races, (
            f"seed {seed}: sanitizer reported races on a race-free "
            f"schedule:\n{rsan.report()}"
        )
    return {
        "results": results,
        "final": bytes(final),
        "now": cluster.sim.now,
        "ops": sum(len(ops) for _, ops in schedule),
        "spans": len(tracer.spans),
        "races": len(rsan.races),
    }
