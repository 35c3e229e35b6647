"""The seven workloads: set-up, closed-loop rounds, output oracles.

Each workload drives the system only through its public entry points
and keeps a driver-side model of what the outputs must be.  Simulated
clients are coroutines in one host thread; a *round* spawns one
coroutine per client, each issuing its next op only after the previous
one completed (closed loop), and ends when all of them have finished.

Why each workload exists is recorded in ``BENCHMARK.json`` and the
README; the op counts come from ``inputs.REFERENCE_RATE``.
"""

from __future__ import annotations

import hashlib
import struct

import inputs
from repro.cluster import build_cluster
from repro.core import RStoreConfig, RStoreError
from repro.kv import RKVStore
from repro.simnet.config import KiB, MiB

class Round:
    """What one round did, on the simulated clock."""

    __slots__ = ("ops", "failed", "payload", "sim_s", "samples")

    def __init__(self):
        self.ops = 0          # logical ops attempted
        self.failed = 0       # raised, refused, or rejected by the oracle
        self.payload = 0      # payload bytes delivered to/from the app
        self.sim_s = 0.0      # simulated seconds the round took
        self.samples = []     # simulated latency of each blocking op

    def done(self, started: float, now: float, ok: bool, payload: int):
        self.ops += 1
        if ok:
            self.samples.append(now - started)
            self.payload += payload
        else:
            self.failed += 1


def _split(total: int, parts: int) -> list:
    return [total // parts + (i < total % parts) for i in range(parts)]


class Workload:
    """Shared round driver; subclasses supply the ops and the oracle."""

    name = ""
    #: host ids the simulated clients run on (rank = index)
    hosts: tuple = (1,)
    machines = 4
    server_capacity = 64 * MiB
    #: the paper's contract applies: no master RPC in steady state
    data_workload = True
    #: the calibration kernel the measured phase is bound like
    calibration = "interpreter"

    def __init__(self, seed: int, ops_per_round: int):
        self.seed = seed
        self.ops_per_round = ops_per_round
        self.cluster = None
        self._plans: dict = {}

    # -- what subclasses define ----------------------------------------------

    def config(self) -> RStoreConfig:
        return RStoreConfig(stripe_size=64 * KiB)

    def load(self):
        """Allocate, map and fill (generator, runs once after boot)."""
        raise NotImplementedError
        yield

    def plan(self, rank: int, rnd: int, n_ops: int) -> list:
        """The ops of one client in one round (pure function of seed)."""
        raise NotImplementedError

    def client_round(self, rank: int, ops: list, out: Round):
        """Issue *ops* one after another (generator)."""
        raise NotImplementedError
        yield

    def image_into(self, digest):
        """Feed the final state, read back through the public API, into
        *digest* (generator, runs after every client has finished)."""
        raise NotImplementedError
        yield

    def problems(self, image_sha: str) -> list:
        """Oracle verdicts on the final state: a list of complaints."""
        return []

    # -- the shared driver -----------------------------------------------------

    def client(self, rank: int):
        return self.cluster.client(self.hosts[rank])

    def build(self) -> None:
        self.cluster = build_cluster(
            num_machines=self.machines, config=self.config(),
            server_capacity=self.server_capacity,
        )

    def prepare(self, rounds: int) -> None:
        """Load, generate every round's ops, and warm up."""
        self.cluster.run_app(self.load())
        shares = _split(self.ops_per_round, len(self.hosts))
        warm = _split(inputs.warmup_ops(self.ops_per_round),
                      len(self.hosts))
        for rank in range(len(self.hosts)):
            self._plans[rank, inputs.WARMUP] = self.plan(
                rank, inputs.WARMUP, warm[rank])
            for rnd in range(rounds):
                self._plans[rank, rnd] = self.plan(rank, rnd, shares[rank])
        warmed = self.run_round(inputs.WARMUP)
        if warmed.failed:
            raise RuntimeError(
                f"{self.name}: {warmed.failed} warm-up ops failed")

    def run_round(self, rnd: int) -> Round:
        out = Round()
        sim = self.cluster.sim

        def app():
            procs = [
                sim.process(
                    self.client_round(rank, self._plans[rank, rnd], out),
                    name=f"{self.name}-{rank}")
                for rank in range(len(self.hosts))
            ]
            yield sim.all_of(procs)

        start = sim.now
        self.cluster.run_app(app())
        out.sim_s = sim.now - start
        return out

    def final_image_sha(self) -> str:
        """sha256 of the final state, read back through the public API.

        Every client first passes a master barrier, which orders all
        of their earlier accesses before the read-back (and gives the
        race sanitizer the matching happens-before edge).
        """
        digest = hashlib.sha256()
        sim = self.cluster.sim
        count = len(self.hosts)

        def app():
            if count > 1:
                procs = [
                    sim.process(self.client(rank).barrier("bench.done",
                                                          count))
                    for rank in range(count)
                ]
                yield sim.all_of(procs)
            yield from self.image_into(digest)

        self.cluster.run_app(app())
        return digest.hexdigest()

    def _hash_region(self, mapping, digest, chunk: int = 1 * MiB):
        for off in range(0, mapping.size, chunk):
            data = yield from mapping.read(off, min(chunk,
                                                    mapping.size - off))
            digest.update(data)


class RawSmall(Workload):
    """The floor: raw verbs through ``core``, nothing above them."""

    name = "raw_small"
    REGION = 2 * MiB
    OP = 128

    def load(self):
        client = self.client(0)
        yield from client.alloc("raw", self.REGION)
        self.mapping = yield from client.map("raw")
        self.mirror = bytearray(
            inputs.rng_for(self.seed, inputs.RAW, inputs.INITIAL)
            .bytes(self.REGION))
        yield from self.mapping.write(0, bytes(self.mirror))

    def plan(self, rank, rnd, n_ops):
        return inputs.raw_small_ops(self.seed, rnd, n_ops, self.REGION,
                                    self.OP)

    def client_round(self, rank, ops, out):
        sim = self.cluster.sim
        client = self.client(0)
        mapping, mirror, size = self.mapping, self.mirror, self.OP
        for op in ops:
            kind, off = op[0], op[1]
            if kind == "batch":
                yield from self._batch(client, off, out)
                continue
            start = sim.now
            try:
                if kind == "read":
                    data = yield from mapping.read(off, size)
                    out.done(start, sim.now,
                             data == mirror[off:off + size], size)
                elif kind == "write":
                    yield from mapping.write(off, op[2])
                    mirror[off:off + size] = op[2]
                    out.done(start, sim.now, True, size)
                else:
                    old = yield from mapping.faa(off, op[2])
                    want = int.from_bytes(mirror[off:off + 8], "little")
                    mirror[off:off + 8] = (
                        (want + op[2]) & (2 ** 64 - 1)
                    ).to_bytes(8, "little")
                    out.done(start, sim.now, old == want, 8)
            except RStoreError:
                out.done(start, sim.now, False, 0)

    def _batch(self, client, offsets, out):
        """1-32 reads behind one doorbell.  Each read is one op; the
        caller blocks once, on the whole batch, so the batch's flush to
        completion is one latency sample (the slowest ones there are)."""
        size, mirror = self.OP, self.mirror
        start = self.cluster.sim.now
        batch = client.batch()
        try:
            for off in offsets:
                yield from batch.read(self.mapping, off, size)
            yield from batch.flush()
            values = yield from batch.wait_all()
            out.samples.append(self.cluster.sim.now - start)
        except RStoreError:
            values = [None] * len(offsets)
        for off, data in zip(offsets, values):
            out.ops += 1
            if data == mirror[off:off + size]:
                out.payload += size
            else:
                out.failed += 1

    def image_into(self, digest):
        yield from self._hash_region(self.mapping, digest)

    def problems(self, image_sha):
        if image_sha != hashlib.sha256(self.mirror).hexdigest():
            return ["final region image differs from the driver's mirror"]
        return []


class BulkStream(Workload):
    """The paper's bandwidth headline: large zero-copy transfers."""

    name = "bulk_stream"
    hosts = (0, 1, 2, 3)
    calibration = "copy"
    STRIPE = 1 * MiB
    STRIPES = 64
    SOURCE_SLOTS = 4

    def config(self):
        return RStoreConfig(stripe_size=self.STRIPE)

    def load(self):
        count = len(self.hosts)
        yield from self.client(0).alloc("bulk", self.STRIPES * self.STRIPE)
        self.mappings, self.sources, self.sinks, self.source_bytes = (
            [], [], [], [])
        #: stripe -> (rank, source slot) of its current content
        self.content = {}
        for rank in range(count):
            client = self.client(rank)
            self.mappings.append((yield from client.map("bulk")))
            source = yield from client.alloc_local(
                self.SOURCE_SLOTS * self.STRIPE)
            data = inputs.bulk_source(self.seed, rank, source.length)
            source.buffer.write(0, data)
            self.sources.append(source)
            self.source_bytes.append(data)
            self.sinks.append((yield from client.alloc_local(self.STRIPE)))
        for stripe in range(self.STRIPES):
            rank, slot = stripe % count, stripe % self.SOURCE_SLOTS
            yield from self._write(rank, stripe, slot)

    def _write(self, rank, stripe, slot):
        source = self.sources[rank]
        yield from self.mappings[rank].write_from(
            source, source.addr + slot * self.STRIPE,
            stripe * self.STRIPE, self.STRIPE)
        self.content[stripe] = (rank, slot)

    def _expected(self, stripe) -> bytes:
        rank, slot = self.content[stripe]
        return self.source_bytes[rank][slot * self.STRIPE:
                                       (slot + 1) * self.STRIPE]

    def plan(self, rank, rnd, n_ops):
        return inputs.bulk_ops(self.seed, rank, rnd, n_ops, self.STRIPES,
                               len(self.hosts), self.SOURCE_SLOTS)

    def client_round(self, rank, ops, out):
        sim = self.cluster.sim
        mapping, sink = self.mappings[rank], self.sinks[rank]
        count = len(self.hosts)
        for is_read, stripe, slot in ops:
            start = sim.now
            try:
                if is_read:
                    yield from mapping.read_into(
                        sink, sink.addr, stripe * self.STRIPE, self.STRIPE)
                    # other clients' stripes may be mid-write: only a
                    # read of our own stripe has one right answer
                    ok = (stripe % count != rank
                          or sink.buffer.read(0, self.STRIPE)
                          == self._expected(stripe))
                else:
                    yield from self._write(rank, stripe, slot)
                    ok = True
                out.done(start, sim.now, ok, self.STRIPE)
            except RStoreError:
                out.done(start, sim.now, False, 0)

    def image_into(self, digest):
        yield from self._hash_region(self.mappings[0], digest)

    def problems(self, image_sha):
        want = hashlib.sha256()
        for stripe in range(self.STRIPES):
            want.update(self._expected(stripe))
        if image_sha != want.hexdigest():
            return ["final region image differs from the driver's mirror"]
        return []


_KV_HEADER = struct.Struct("<IIQ")


def kv_value(key: int, owner: int, version: int, size: int) -> bytes:
    """A self-describing value: (key, owner, version) tiled to *size*."""
    return _KV_HEADER.pack(key, owner, version) * (size // _KV_HEADER.size)


class KvWorkload(Workload):
    """Zipfian get/put over one shared ``RKVStore``, three clients."""

    hosts = (1, 2, 3)
    SLOTS = 8 * 1024
    KEYS = 2000
    THETA = 0.99
    value_size = 256
    get_share = 0.95
    policy = "one_sided"
    sanitize = False

    def config(self):
        return RStoreConfig(stripe_size=64 * KiB, sanitize=self.sanitize)

    @staticmethod
    def _key(index: int) -> bytes:
        return b"k%07d" % index

    def load(self):
        count = len(self.hosts)
        loader = yield from RKVStore.create(
            self.client(0), "bench", slots=self.SLOTS, key_size=16,
            value_size=self.value_size)
        for key in range(self.KEYS):
            yield from loader.put(
                self._key(key),
                kv_value(key, key % count, 0, self.value_size))
        self.stores = []
        for rank in range(count):
            self.stores.append((yield from RKVStore.open(
                self.client(rank), "bench", path_policy=self.policy)))
        #: versions[rank][key]: the newest version this client has seen
        self.versions = [[0] * self.KEYS for _ in range(count)]
        if self.policy == "adaptive":
            yield from self._open_every_path()

    def _open_every_path(self):
        """First contact with each server in each mode pays a one-time
        channel or fetch-buffer set-up through the master; pay it here,
        on the control path, not inside the measured phase."""
        for rank in range(len(self.hosts)):
            for mode in ("server_op", "remote_fetch"):
                probe = yield from RKVStore.open(
                    self.client(rank), "bench", path_policy=mode)
                for key in range(0, self.KEYS, self.KEYS // 64):
                    yield from probe.get(self._key(key))

    def plan(self, rank, rnd, n_ops):
        return inputs.kv_ops(self.seed, rank, rnd, n_ops, self.KEYS,
                             len(self.hosts), self.THETA, self.get_share)

    def client_round(self, rank, ops, out):
        sim = self.cluster.sim
        store, seen = self.stores[rank], self.versions[rank]
        count, size = len(self.hosts), self.value_size
        for is_get, key in ops:
            start = sim.now
            try:
                if is_get:
                    value = yield from store.get(self._key(key))
                    ok = self._accept(rank, key, value)
                else:
                    yield from store.put(
                        self._key(key),
                        kv_value(key, key % count, seen[key] + 1, size))
                    seen[key] += 1
                    ok = True
                out.done(start, sim.now, ok, size)
            except RStoreError:
                out.done(start, sim.now, False, 0)

    def _accept(self, rank, key, value) -> bool:
        """A get must decode to the asked key, written by its owner, at
        a version that never goes backwards (and exactly ours if we are
        the owner), with every tile of the value agreeing."""
        if value is None or len(value) < _KV_HEADER.size:
            return False
        got_key, owner, version = _KV_HEADER.unpack_from(value)
        count = len(self.hosts)
        seen = self.versions[rank]
        if (got_key != key or owner != key % count
                or bytes(value[:self.value_size])
                != kv_value(key, owner, version, self.value_size)):
            return False
        if version < seen[key] or (owner == rank and version != seen[key]):
            return False
        seen[key] = version
        return True

    def image_into(self, digest):
        yield from self._hash_region(self.stores[0].mapping, digest)

    def problems(self, image_sha):
        """Every key must end at its owner's last written version."""
        bad = []
        count = len(self.hosts)

        def check():
            for key in range(self.KEYS):
                value = yield from self.stores[0].get(self._key(key))
                want = kv_value(key, key % count,
                                self.versions[key % count][key],
                                self.value_size)
                if value is None or bytes(value[:self.value_size]) != want:
                    bad.append(key)

        self.cluster.run_app(check())
        return [f"{len(bad)} keys ended at the wrong version"] if bad else []


class KvReadOneSided(KvWorkload):
    name = "kv_read_onesided"


class KvUpdateAdaptive(KvWorkload):
    name = "kv_update_adaptive"
    value_size = 64
    get_share = 0.5
    policy = "adaptive"


class KvReadSanitized(KvWorkload):
    name = "kv_read_sanitized"
    sanitize = True


class ControlChurn(Workload):
    """The control path: alloc, map, re-map, unmap, free."""

    name = "control_churn"
    hosts = (1, 2, 3)
    data_workload = False
    STRIPE = 64 * KiB
    PAYLOAD = 64

    def config(self):
        return RStoreConfig(stripe_size=self.STRIPE, control_shards=2)

    def load(self):
        """Dial every lazy connection on a fixed path: each client runs
        eight full-width cycles, whose names hash onto both shards and
        whose six stripes land on all four servers.  Left to the seeded
        warm-up, the order of first contacts (each 2-4 ms of simulated
        dialling, and buffers on the host) would differ per seed."""
        out = Round()
        for rank in range(len(self.hosts)):
            yield from self.client_round(
                rank,
                [(f"t{rank}/dial.{i}", 6 * self.STRIPE, bytes(self.PAYLOAD))
                 for i in range(8)],
                out)
        if out.failed:
            raise RuntimeError(f"{out.failed} dial-up cycles failed")

    def plan(self, rank, rnd, n_ops):
        cycles = inputs.churn_ops(self.seed, rank, rnd, n_ops, self.PAYLOAD)
        return [(f"t{rank}/r{rnd}.{i}", stripes * self.STRIPE, payload)
                for i, (stripes, payload) in enumerate(cycles)]

    def client_round(self, rank, ops, out):
        sim = self.cluster.sim
        client = self.client(rank)
        for name, size, payload in ops:
            start = sim.now
            try:
                yield from client.alloc(name, size)
                cold = yield from client.map(name)
                yield from cold.write(0, payload)
                hits = client.metadata_cache_hits
                warm = yield from client.map(name)
                ok = client.metadata_cache_hits == hits + 1
                warm.unmap()
                cold.unmap()
                yield from client.free(name)
                out.done(start, sim.now, ok, self.PAYLOAD)
            except RStoreError:
                out.done(start, sim.now, False, 0)

    def image_into(self, digest):
        self.left = yield from self.client(0).list_regions()
        digest.update(repr(self.left).encode())

    def problems(self, image_sha):
        if self.left:
            return [f"{len(self.left)} regions survived the churn"]
        return []


class TxnBank(Workload):
    """Contended OCC transactions; one committed transfer = one op."""

    name = "txn_bank"
    hosts = (1, 2, 3)
    data_workload = False
    ACCOUNTS = 200
    SLOTS = 1024
    OPENING = 1000
    THETA = 0.9

    @staticmethod
    def _key(index: int) -> bytes:
        return b"acct-%04d" % index

    def load(self):
        bank = yield from RKVStore.create(
            self.client(0), "bank", slots=self.SLOTS, key_size=16,
            value_size=16)
        for account in range(self.ACCOUNTS):
            yield from bank.put(self._key(account),
                                str(self.OPENING).encode())
        self.views, self.runtimes = [], []
        for rank in range(len(self.hosts)):
            view = yield from RKVStore.open(self.client(rank), "bank")
            self.views.append(view)
            self.runtimes.append(view.txn(label=f"bank-{rank}"))

    def plan(self, rank, rnd, n_ops):
        return inputs.txn_ops(self.seed, rank, rnd, n_ops, self.ACCOUNTS,
                              self.THETA)

    def client_round(self, rank, ops, out):
        sim = self.cluster.sim
        view, runtime = self.views[rank], self.runtimes[rank]
        for src, dst, amount in ops:
            src_key, dst_key = self._key(src), self._key(dst)
            moved = [0]

            def transfer(txn, src_key=src_key, dst_key=dst_key,
                         amount=amount, moved=moved):
                a = yield from txn.get(view, src_key)
                b = yield from txn.get(view, dst_key)
                a_new = str(int(a) - amount).encode()
                b_new = str(int(b) + amount).encode()
                yield from txn.put(view, src_key, a_new)
                yield from txn.put(view, dst_key, b_new)
                moved[0] = len(a) + len(b) + len(a_new) + len(b_new)

            start = sim.now
            try:
                yield from runtime.run(transfer)
                out.done(start, sim.now, True, moved[0])
            except RStoreError:
                out.done(start, sim.now, False, 0)

    def image_into(self, digest):
        yield from self._hash_region(self.views[0].mapping, digest)
        self.total = 0
        for account in range(self.ACCOUNTS):
            value = yield from self.views[0].get(self._key(account))
            self.total += int(value)

    def problems(self, image_sha):
        want = self.ACCOUNTS * self.OPENING
        if self.total != want:
            return [f"ledger total {self.total} != {want}: a commit tore"]
        return []


WORKLOADS = {
    cls.name: cls
    for cls in (RawSmall, BulkStream, KvReadOneSided, KvUpdateAdaptive,
                KvReadSanitized, ControlChurn, TxnBank)
}
