"""Randomized op schedules vs the in-memory reference model.

Every test prints its seed first, so a failure names the schedule that
broke; re-run exactly that schedule with ``pytest tests/harness --seed
<n>``.  ``--sanitize`` runs the whole matrix under the RSan race
sanitizer — schedules are race-free by construction (single
sequential client), so any report fails the run.
"""

from tests.harness.schedule import run_schedule


def test_random_schedule_matches_model(seed, sanitize):
    print(f"\nharness seed: {seed}" + (" (sanitized)" if sanitize else ""))
    digest = run_schedule(seed, sanitize=sanitize)
    # a schedule that degenerated to a handful of ops proves nothing
    assert digest["ops"] > 50
    # tracing was off: the data path must not have allocated any spans
    assert digest["spans"] == 0
    assert digest["races"] == 0


def test_tracing_does_not_perturb_the_simulation(seed, sanitize):
    """Traced and untraced runs of one seed are bit-for-bit identical.

    The tracer reads the simulated clock but never advances it and
    never touches an RNG stream, so enabling it cannot change what the
    simulation computes — the core guarantee that makes traces of
    seeded scenarios trustworthy.
    """
    print(f"\nharness seed: {seed}")
    plain = run_schedule(seed, trace=False, sanitize=sanitize)
    traced = run_schedule(seed, trace=True, sanitize=sanitize)
    assert traced["spans"] > plain["ops"]  # every op spans, plus layers
    assert traced["results"] == plain["results"]
    assert traced["final"] == plain["final"]
    assert traced["now"] == plain["now"]
