"""The 2PL baseline's simulated results may not depend on PYTHONHASHSEED.

Its keys are ``bytes``, whose hash order changes per interpreter run;
iterating a ``set`` of them around a yield issued the slot-resolution
READs in that order and moved E14's checked-in numbers from run to run.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import hashlib, random
from repro.baselines import TwoPhaseLocking
from repro.cluster import build_cluster
from repro.core import RStoreConfig
from repro.kv import RKVStore
from repro.simnet.config import KiB, MiB

KEYS = [f"acct-{i:02d}".encode() for i in range(12)]
cluster = build_cluster(num_machines=4,
                        config=RStoreConfig(stripe_size=4 * KiB),
                        server_capacity=16 * MiB)
sim = cluster.sim

def setup():
    store = yield from RKVStore.create(cluster.client(0), "bank", slots=64)
    for key in KEYS:
        yield from store.put(key, b"100")

def worker(host):
    view = yield from RKVStore.open(cluster.client(host), "bank")
    runner = TwoPhaseLocking(cluster.client(host), label=f"2pl-{host}")
    rng = random.Random(host)
    for _ in range(12):
        keys = rng.sample(KEYS, 4)
        def move(values, keys=keys):
            return {keys[0]: str(int(values[keys[0]]) - 1).encode(),
                    keys[3]: str(int(values[keys[3]]) + 1).encode()}
        yield from runner.run(view, keys, move)

def app():
    yield sim.all_of([cluster.spawn(worker(h)) for h in (1, 2, 3)])
    view = yield from RKVStore.open(cluster.client(0), "bank")
    state = hashlib.sha256()
    for key in KEYS:
        state.update((yield from view.get(key)))
    return state.hexdigest()

cluster.run_app(setup())
state = cluster.run_app(app())
print(repr(sim.now), state)
"""


def _run(hashseed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_twopl_run_is_independent_of_hash_seed():
    assert _run("1") == _run("2")
