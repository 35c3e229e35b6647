"""RL002 fixture: wall-clock and global-RNG nondeterminism outside
``simnet/``, and ``.now`` writes outside ``simnet/kernel.py``.  Never
imported — parsed as text; ``# -> RLxxx`` marks each expected finding."""

import random
import random as r
import time
import time as t
from random import randint
from time import perf_counter


def stamp():
    started = time.time()                   # -> RL002
    elapsed = time.monotonic()              # -> RL002
    return started, elapsed


def jitter():
    backoff = random.random()               # -> RL002
    rng = random.Random()                   # -> RL002
    allowed = random.random()  # repro-lint: allow[RL002]
    return backoff, rng, allowed


def aliased():
    # the same callees reached through other import spellings
    started = perf_counter()                # -> RL002
    now = t.time()                          # -> RL002
    pick = randint(0, 9)                    # -> RL002
    draw = r.random()                       # -> RL002
    seeded = r.Random(1234)
    return started, now, pick, draw, seeded


def rewind(sim):
    # the simulated clock moves only inside simnet/kernel.py
    sim.now = 0.0                           # -> RL002
    return sim.now
