"""Mode equivalence: every data path converges to the same state.

One seeded workload — two clients, single writer per key, counter
bursts, a master crash/restart mid-run — executes once per path policy
on a fresh cluster.  The final observable state (every key's value,
read back both through the mode under test and through a plain
one-sided handle, plus the counter total) must hash identically across
``one_sided``, ``server_op``, ``remote_fetch`` and ``adaptive``, and
every run must finish RSan-clean: the server-op executor's emitted
happens-before edges are exactly the ones the one-sided protocol
produces.

Every key is overwritten, deleted and re-inserted, then overwritten
again, so a write that starts from the client's hint of the key's slot
runs under every policy, across the crash: under ``server_op`` the
stores leave the hints that the one-sided ``delete`` starts from.  Each
store is read back at once through the mode under test, from the hint
the store left: a hinted get, one-sided or shipped to the server, runs
under every policy across the crash too.
"""

import hashlib
import random

from repro.cluster import build_cluster
from repro.coord.base import region_name
from repro.coord.counter import AtomicCounter
from repro.core import RStoreConfig
from repro.kv.hashkv import RKVStore
from repro.sanitize import rsan_for
from repro.simnet.config import KiB, MiB
from repro.simnet.faults import FaultInjector

from tests.harness.schedule import harness_seeds
from tests.probes import create_table, write_hint

MODES = ("one_sided", "server_op", "remote_fetch", "adaptive")
KEYS = 32
ROUNDS = 4
#: the round that deletes each key before re-inserting it
REINSERT_ROUND = 2


def pytest_generate_tests(metafunc):
    if "seed" in metafunc.fixturenames:
        metafunc.parametrize("seed", harness_seeds(metafunc.config))


def _value(key: bytes, round_no: int, seed: int) -> bytes:
    raw = b"%s|r%d|s%d" % (key, round_no, seed)
    return hashlib.blake2b(raw, digest_size=24).digest()


def _run_mode(mode: str, seed: int) -> str:
    """One full workload under *mode*; returns the final-state digest."""
    faults = FaultInjector(seed=seed)
    faults.crash_master(at=0.05, restart_after=0.08)
    config = RStoreConfig(stripe_size=8 * KiB, sanitize=True)
    cluster = build_cluster(
        num_machines=4, config=config, server_capacity=32 * MiB,
        faults=faults,
    )
    writers = [cluster.client(1), cluster.client(2)]
    keys = [b"key-%02d" % i for i in range(KEYS)]
    digest = {}

    def owner_of(i):
        return writers[i % 2]

    def writer_app(who):
        rng = random.Random((seed << 2) ^ who)
        client = writers[who]
        store = yield from RKVStore.open(client, "eq", path_policy=mode)
        # AtomicCounter.open runs one-sided: build the handle in *mode*
        ctr = AtomicCounter(client, "eq-total",
                            (yield from client.map(region_name("eq-total"))),
                            mode)
        for round_no in range(ROUNDS):
            for i, key in enumerate(keys):
                if i % 2 != who:
                    continue
                if round_no == REINSERT_ROUND:
                    assert write_hint(store, key) is not None
                    assert (yield from store.delete(key)) is True
                yield from store.put(key, _value(key, round_no, seed))
                assert write_hint(store, key) is not None
                assert (yield from store.get(key)) == _value(key, round_no,
                                                             seed)
                yield cluster.sim.timeout(rng.uniform(0.0005, 0.002))
                if rng.random() < 0.4:
                    probe = keys[rng.randrange(KEYS)]
                    yield from store.get(probe)  # cross-client read
                if rng.random() < 0.25:
                    yield from ctr.add_burst([i + 1, round_no + 1])
                    yield cluster.sim.timeout(rng.uniform(0.0005, 0.002))
            batch = [keys[j] for j in
                     rng.sample(range(KEYS), 6)]
            yield from store.multi_get(batch)

    def app():
        setup_client = writers[0]
        yield from create_table(setup_client, "eq", slots=4 * KEYS,
                                key_size=16, value_size=32,
                                path_policy=mode)
        yield from AtomicCounter.create(setup_client, "eq-total",
                                        path_policy=mode)
        procs = [cluster.sim.process(writer_app(who), name=f"writer-{who}")
                 for who in range(2)]
        yield cluster.sim.all_of(procs)

        # -- final state, hashed -----------------------------------------
        hasher = hashlib.sha256()
        mode_store = yield from RKVStore.open(writers[0], "eq",
                                              path_policy=mode)
        raw_store = yield from RKVStore.open(writers[1], "eq",
                                             path_policy="one_sided")
        for key in sorted(keys):
            through_mode = yield from mode_store.get(key)
            one_sided = yield from raw_store.get(key)
            assert through_mode == one_sided, (
                f"{mode}/seed {seed}: {key!r} diverges between the mode "
                "path and the one-sided path"
            )
            assert one_sided == _value(key, ROUNDS - 1, seed)
            hasher.update(key)
            hasher.update(one_sided)
        ctr = yield from AtomicCounter.open(writers[0], "eq-total")
        total = yield from ctr.read()
        hasher.update(total.to_bytes(8, "little"))
        digest["hex"] = hasher.hexdigest()

    cluster.run_app(app())
    races = rsan_for(cluster.sim).races
    assert races == [], f"{mode}/seed {seed}: RSan races: {races}"
    return digest["hex"]


def test_all_modes_reach_the_identical_final_state(seed):
    digests = {mode: _run_mode(mode, seed) for mode in MODES}
    assert len(set(digests.values())) == 1, (
        f"seed {seed}: final states diverge across modes: {digests}"
    )
