"""Fuzzing the data path with randomized wire-fault schedules.

Each seed derives a schedule of ``fail_wire`` windows (a mix of
launch-point faults, where nothing reaches the remote NIC, and
ack-point faults, where the op applies remotely and only its
completion is lost) and drives a mixed workload through them:

* reads and writes replay inside the client and must converge to the
  reference model once the windows close;
* non-idempotent FAAs must apply **exactly once or raise** — an
  ambiguous completion may mean applied-or-not, but never twice — so
  the final counter word is bracketed by the success count below and
  success-plus-ambiguous above.

The seed prints first; re-run one schedule with ``--seed <n>``.
"""

import random

from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.core.errors import RegionUnavailableError
from repro.sanitize import rsan_for
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector


_REGION = 64 * KiB
#: the FAA target lives in word 0; bulk data stays above it
_DATA_BASE = 64


def _fault_plan(rng: random.Random, seed: int) -> FaultInjector:
    """3-5 seeded windows against the workload host, capped so the
    client's retry budget (6 attempts) can always outlast a window."""
    faults = FaultInjector(seed=seed)
    for _ in range(rng.randint(3, 5)):
        faults.fail_wire(
            1,  # the workload client's host
            start=0.0,
            duration=10.0,
            probability=rng.uniform(0.15, 0.5),
            times=rng.randint(1, 4),
            where=rng.choice(("launch", "ack")),
        )
    return faults


def test_fault_schedule_converges(seed, sanitize):
    print(f"\nfault-fuzz seed: {seed}" + (" (sanitized)" if sanitize else ""))
    rng = random.Random(seed ^ 0x5EED)
    faults = _fault_plan(rng, seed)
    cluster = build_cluster(
        num_machines=4,
        config=RStoreConfig(stripe_size=8 * KiB, sanitize=sanitize),
        server_capacity=16 * MiB,
        faults=faults,
    )
    client = cluster.client(1)
    model = bytearray(_REGION)
    outcome = {"successes": 0, "ambiguous": 0}

    def reissue(op):
        """Reads/writes converge: replay inside the client, and in the
        worst case (budget exhausted mid-window) re-issue from here."""
        for _ in range(3):
            try:
                return (yield from op())
            except RegionUnavailableError:
                continue
        raise AssertionError(
            f"seed {seed}: op failed to converge within 3 re-issues"
        )

    def app():
        yield from client.alloc("fuzz", _REGION)
        mapping = yield from client.map("fuzz")
        for _ in range(40):
            roll = rng.random()
            if roll < 0.45:
                length = rng.randint(1, 4096)
                offset = rng.randrange(_DATA_BASE, _REGION - length + 1)
                payload = rng.randbytes(length)
                yield from reissue(lambda: mapping.write(offset, payload))
                model[offset:offset + length] = payload
            elif roll < 0.80:
                length = rng.randint(1, 4096)
                offset = rng.randrange(_DATA_BASE, _REGION - length + 1)
                data = yield from reissue(lambda: mapping.read(offset, length))
                assert data == bytes(model[offset:offset + length]), (
                    f"seed {seed}: read at {offset} diverged"
                )
            else:
                # the non-idempotent path: each FAA bumps word 0 by one
                try:
                    yield from mapping.faa(0, 1)
                except RegionUnavailableError:
                    outcome["ambiguous"] += 1
                else:
                    outcome["successes"] += 1
        # the windows' times caps have long since drained; a replayable
        # read of the counter word settles what the FAAs really did
        word = yield from mapping.read(0, 8)
        final = yield from mapping.read(0, _REGION)
        return int.from_bytes(word, "little"), final

    counter, final = cluster.run_app(app())

    # the schedule must actually have bitten for this test to mean much
    assert faults.injected["wire"] > 0, (
        f"seed {seed}: no wire fault fired — widen the windows"
    )
    # exactly-once-or-raise: never double-applied, never silently lost
    lo, hi = outcome["successes"], outcome["successes"] + outcome["ambiguous"]
    assert lo <= counter <= hi, (
        f"seed {seed}: counter {counter} outside [{lo}, {hi}] "
        f"({outcome['ambiguous']} ambiguous FAAs)"
    )
    # reads/writes converged byte-for-byte outside the counter word
    assert bytes(final[_DATA_BASE:]) == bytes(model[_DATA_BASE:]), (
        f"seed {seed}: store diverged from the model after retries"
    )
    # a single sequential client racing nobody: any sanitizer report —
    # even under replay, remap and ambiguous completions — is a false
    # positive in RSan itself
    rsan = rsan_for(cluster.sim)
    assert rsan.races == [], (
        f"seed {seed}: sanitizer false positive under faults:\n"
        f"{rsan.report()}"
    )
