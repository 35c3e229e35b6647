"""RSort: distributed key-value sorting on the memory-like API.

Pipeline (all regions live in RStore):

1. **Read** — each worker pulls its input slice with one-sided reads.
2. **Sample** — workers publish key samples; the coordinator derives
   P-1 splitters and broadcasts them (control path through the master).
3. **Partition** — numpy classification of records by splitter.
4. **Shuffle** — for each destination, the sender reserves space in the
   destination's shuffle region with a remote **fetch-and-add** on its
   tail counter, then RDMA-writes the records.  No destination CPU, no
   receive handling, no flow-control messages: the paper's API pitch.

Phase transitions synchronize on a :class:`~repro.coord.SenseBarrier`
(one-sided FAA + flag polling), so after setup the master only sees the
sampling exchange — inter-phase coordination rides the data path.
5. **Sort** — each worker sorts its shuffle region locally (full
   10-byte lexicographic order) with an explicit n·log n CPU charge.
6. **Write** — sorted runs land in per-worker output regions placed on
   the worker's own memory server.

Scaled runs: real records stay at a tractable count while ``scale``
multiplies every wire/disk/CPU size, so a laptop simulates the paper's
256 GB run through the identical code path (see EXPERIMENTS.md).  The
wire factor is set once per mapping, at ``map(..., wire_scale=scale)``
of the input, shuffle and output regions; the 8-byte shuffle tail is
read through a second, unscaled map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.cluster.builder import Cluster
from repro.coord import SenseBarrier
from repro.simnet.config import MiB
from repro.workloads.kv import KEY_BYTES, RECORD_BYTES, generate_records

__all__ = ["SortComputeModel", "RSort"]

_SAMPLES_PER_WORKER = 128
_HEADER = 8  # the shuffle region's tail counter


@dataclass
class SortComputeModel:
    """CPU cost of sorting work (charged on logical record counts)."""

    #: classify + move one record during partitioning
    per_record_partition_s: float = 10e-9
    #: one comparison in the local sort (n log2 n of them); calibrated
    #: to a C merge sort moving 100-byte records on 2014 cores
    per_compare_s: float = 12e-9
    #: records are processed on this many cores in parallel
    cores_used: int = 8

    def partition_cost(self, records: int) -> float:
        return records * self.per_record_partition_s / self.cores_used

    def sort_cost(self, records: int) -> float:
        if records < 2:
            return 0.0
        return (
            records * math.log2(records) * self.per_compare_s / self.cores_used
        )


def key_prefix_u64(records: np.ndarray) -> np.ndarray:
    """First 8 key bytes as big-endian uint64 (order-preserving prefix)."""
    return records[:, :8].copy().view(">u8").ravel()


def sort_order(records: np.ndarray) -> np.ndarray:
    """Indices sorting records by the full 10-byte key."""
    # lexsort's last key is most significant: feed columns reversed
    return np.lexsort(tuple(records[:, KEY_BYTES - 1 - i] for i in range(KEY_BYTES)))


class RSort:
    """Distributed sort over RStore."""

    def __init__(
        self,
        cluster: Cluster,
        records_per_worker: int,
        worker_hosts: Optional[list[int]] = None,
        scale: int = 1,
        seed: int = 0,
        model: Optional[SortComputeModel] = None,
        tag: str = "sort",
        shuffle_slack: float = 2.0,
    ):
        if records_per_worker < 1:
            raise ValueError("need at least one record per worker")
        if scale < 1:
            raise ValueError("scale must be >= 1")
        self.cluster = cluster
        self.records_per_worker = records_per_worker
        self.worker_hosts = worker_hosts or list(range(cluster.num_machines))
        self.scale = scale
        self.seed = seed
        self.model = model or SortComputeModel()
        self.tag = tag
        self.shuffle_slack = shuffle_slack
        self._prepared = False

    @property
    def num_workers(self) -> int:
        return len(self.worker_hosts)

    @property
    def total_records(self) -> int:
        return self.records_per_worker * self.num_workers

    @property
    def logical_bytes(self) -> int:
        """The dataset size this run stands for."""
        return self.total_records * RECORD_BYTES * self.scale

    # -- input generation (the TeraGen phase; not part of sort timing) -----

    def prepare(self):
        """Generate input and load it into the store (generator)."""
        sim = self.cluster.sim
        tag = self.tag
        slice_bytes = self.records_per_worker * RECORD_BYTES
        coordinator = self.cluster.client(self.worker_hosts[0])
        yield from coordinator.alloc(
            f"{tag}.input", slice_bytes * self.num_workers
        )
        # the inter-phase barrier every worker opens at setup
        yield from SenseBarrier.create(
            coordinator, f"{tag}.phase", parties=self.num_workers
        )

        def generate(rank):
            client = self.cluster.client(self.worker_hosts[rank])
            records = generate_records(
                self.records_per_worker, seed=self.seed + rank
            )
            mapping = yield from client.map(f"{tag}.input",
                                            wire_scale=self.scale)
            mr = yield from client.alloc_local(slice_bytes)
            mr.buffer.write(0, records.tobytes())
            yield from mapping.write_from(
                mr, mr.addr, rank * slice_bytes, slice_bytes)

        procs = [
            sim.process(generate(rank), name=f"{self.tag}-gen-{rank}")
            for rank in range(self.num_workers)
        ]
        yield sim.all_of(procs)
        self._prepared = True

    # -- the sort itself -----------------------------------------------------

    def run(self):
        """Sort (generator).  Returns stats with ``elapsed`` and counts."""
        if not self._prepared:
            # the job driver: generating input on first use is the
            # sanctioned control/data phase transition, and prepare()
            # finishes before the timed section below starts
            yield from self.prepare()  # repro-lint: allow[RL001]
        sim = self.cluster.sim
        stats = SimpleNamespace(
            elapsed=0.0,
            logical_bytes=self.logical_bytes,
            records=self.total_records,
            per_worker_output=None,
        )
        counts: dict[int, int] = {}
        t0 = sim.now
        procs = [
            sim.process(self._worker(rank, counts),
                        name=f"{self.tag}-worker-{rank}")
            for rank in range(self.num_workers)
        ]
        yield sim.all_of(procs)
        stats.elapsed = sim.now - t0
        stats.per_worker_output = [counts[r] for r in range(self.num_workers)]
        stats.throughput_Bps = (
            self.logical_bytes / stats.elapsed if stats.elapsed > 0 else 0.0
        )
        return stats

    # -- per-worker control-path helpers (create/open/setup vocabulary;
    # repro-lint RL001 keeps master traffic out of the phases proper) --------

    def _worker_setup(self, rank: int, client, host_id: int):
        """Open the phase barrier, place this worker's shuffle region."""
        barrier = yield from SenseBarrier.open(
            client, f"{self.tag}.phase", parties=self.num_workers
        )
        expected = self.records_per_worker * RECORD_BYTES  # balanced split
        shuffle_bytes = _HEADER + int(expected * self.shuffle_slack)
        yield from client.alloc(
            f"{self.tag}.shuffle.{rank}", shuffle_bytes,
            preferred_host=host_id,
        )
        return barrier

    def _load_slice(self, rank: int, client):
        """Map the input and pull this worker's slice — one batched
        flush reads the striped pieces from every server under
        doorbell batching."""
        slice_bytes = self.records_per_worker * RECORD_BYTES
        input_map = yield from client.map(f"{self.tag}.input",
                                          wire_scale=self.scale)
        in_mr = yield from client.alloc_local(slice_bytes)
        ingest = client.batch()
        in_fut = ingest.read_into(
            input_map, in_mr, in_mr.addr, rank * slice_bytes, slice_bytes)
        yield from ingest.flush()
        yield from in_fut.wait()
        return np.frombuffer(
            in_mr.buffer.read(0, slice_bytes), dtype=np.uint8
        ).reshape(-1, RECORD_BYTES)

    def _prepare_splitters(self, rank: int, client, prefixes):
        """The sampling exchange: the one master-mediated step."""
        tag = self.tag
        workers = self.num_workers
        rng = np.random.default_rng(self.seed + 1000 + rank)
        sample = rng.choice(
            prefixes, size=min(_SAMPLES_PER_WORKER, len(prefixes)),
            replace=False,
        )
        yield from client.notify(f"{tag}.samples.{rank}", sample.tolist())
        if rank == 0:
            gathered = []
            for peer in range(workers):
                part = yield from client.wait_note(f"{tag}.samples.{peer}")
                gathered.extend(part)
            gathered.sort()
            quantiles = [
                gathered[(i + 1) * len(gathered) // workers - 1]
                for i in range(workers - 1)
            ]
            yield from client.notify(f"{tag}.splitters", quantiles)
        return np.array(
            (yield from client.wait_note(f"{tag}.splitters")),
            dtype=np.uint64,
        )

    def _open_shuffle_maps(self, rank: int, client):
        """Map every peer's shuffle region (scaled), this worker's own
        once more unscaled for its 8-byte tail, plus the staging MRs.

        The merge buffer is allocated here too, sized for the worst
        case the shuffle region can hold, so the local-sort phase that
        drains it stays pure one-sided — no allocation mid-phase."""
        slice_bytes = self.records_per_worker * RECORD_BYTES
        shuffle_maps = []
        for peer in range(self.num_workers):
            mapping = yield from client.map(f"{self.tag}.shuffle.{peer}",
                                            wire_scale=self.scale)
            shuffle_maps.append(mapping)
        tail_map = yield from client.map(shuffle_maps[rank].desc)
        out_mr = yield from client.alloc_local(max(slice_bytes, 1))
        merge_bytes = int(slice_bytes * self.shuffle_slack)
        recv_mr = yield from client.alloc_local(max(merge_bytes, 1))
        return shuffle_maps, tail_map, out_mr, recv_mr

    def _setup_output(self, rank: int, client, host_id: int,
                      out_bytes: int, staging_bytes: int):
        """Place and map the sorted-run output region (+ staging MR)."""
        yield from client.alloc(
            f"{self.tag}.out.{rank}", out_bytes, preferred_host=host_id
        )
        out_map = yield from client.map(f"{self.tag}.out.{rank}",
                                        wire_scale=self.scale)
        final_mr = None
        if staging_bytes:
            final_mr = yield from client.alloc_local(staging_bytes)
        return out_map, final_mr

    def _worker(self, rank: int, counts: dict):
        tag = self.tag
        host_id = self.worker_hosts[rank]
        client = self.cluster.client(host_id)
        cpu = self.cluster.net.host(host_id).cpu
        workers = self.num_workers
        model = self.model
        logical = self.records_per_worker * self.scale

        # the per-worker driver: each numbered phase below hops through
        # a control-named helper exactly once, at its phase boundary
        barrier = yield from self._worker_setup(  # repro-lint: allow[RL001]
            rank, client, host_id)
        yield from barrier.wait()

        # 1. read the input slice
        ingest_span = client.obs.tracer.span("app.sort.ingest", kind="app",
                                             rank=rank)
        records = yield from self._load_slice(rank, client)
        ingest_span.finish(records=len(records))

        # 2. sampling -> splitters (control path via the master)
        prefixes = key_prefix_u64(records)
        splitters = yield from self._prepare_splitters(rank, client,
                                                       prefixes)

        # 3. partition
        yield from cpu.run(model.partition_cost(logical))
        dest = np.searchsorted(splitters, prefixes, side="right")

        # 4. one-sided shuffle: FAA-reserve, then RDMA-write
        shuffle_span = client.obs.tracer.span("app.sort.shuffle", kind="app",
                                              rank=rank)
        shuffle_maps, tail_map, out_mr, recv_mr = \
            yield from self._open_shuffle_maps(rank, client)
        # rotated destination order: if every worker walked peers
        # 0,1,2,... in lockstep the whole cluster would incast one
        # receiver at a time; starting at rank+1 spreads the load
        sends = []
        cursor = 0
        for step in range(1, workers + 1):
            peer = (rank + step) % workers
            chunk = records[dest == peer]
            if len(chunk) == 0:
                continue
            sends.append((peer, cursor, chunk.tobytes()))
            cursor += len(chunk) * RECORD_BYTES
        if sends:
            # stage every destination's chunk at its own offset, then
            # pipeline the whole shuffle: all FAA reservations go out
            # concurrently, and every record write rides one batched
            # flush instead of a blocking round-trip per destination
            yield from cpu.copy(cursor)
            for _peer, pos, blob in sends:
                out_mr.buffer.write(pos, blob)
            reserve = client.batch()
            for peer, _pos, blob in sends:
                reserve.faa(shuffle_maps[peer], 0, len(blob))
            yield from reserve.flush()
            offsets = yield from reserve.wait_all()
            shuffle = client.batch()
            for (peer, pos, blob), offset in zip(sends, offsets):
                shuffle.write_from(
                    shuffle_maps[peer], out_mr, out_mr.addr + pos,
                    _HEADER + offset, len(blob))
            yield from shuffle.flush()
            yield from shuffle.wait_all()
        yield from barrier.wait()  # all shuffle writes have landed
        shuffle_span.finish(bytes=cursor)

        # 5. local sort of the shuffle region
        sort_span = client.obs.tracer.span("app.sort.local_sort", kind="app",
                                           rank=rank)
        tail = yield from tail_map.read(0, _HEADER)
        nbytes = int.from_bytes(tail, "little")
        my_records = np.empty((0, RECORD_BYTES), dtype=np.uint8)
        if nbytes:
            merge = client.batch()
            m_fut = merge.read_into(
                shuffle_maps[rank], recv_mr, recv_mr.addr, _HEADER, nbytes)
            yield from merge.flush()
            yield from m_fut.wait()
            my_records = np.frombuffer(
                recv_mr.buffer.read(0, nbytes), dtype=np.uint8
            ).reshape(-1, RECORD_BYTES)
            yield from cpu.run(model.sort_cost(len(my_records) * self.scale))
            my_records = my_records[sort_order(my_records)]
        sort_span.finish(records=len(my_records))

        # 6. write the sorted run to a local output region
        out_bytes = max(len(my_records) * RECORD_BYTES, 1)
        out_map, final_mr = yield from self._setup_output(
            rank, client, host_id, out_bytes,
            len(my_records) * RECORD_BYTES,
        )
        if len(my_records):
            blob = my_records.tobytes()
            yield from cpu.copy(len(blob))
            final_mr.buffer.write(0, blob)
            yield from out_map.write_from(
                final_mr, final_mr.addr, 0, len(blob))
        counts[rank] = len(my_records)
        yield from barrier.wait()  # every sorted run is in the store

    # -- validation helpers ----------------------------------------------------

    def collect_output(self):
        """Read back the global sorted output (generator) — test support."""
        client = self.cluster.client(self.worker_hosts[0])
        parts = []
        for rank in range(self.num_workers):
            mapping = yield from client.map(f"{self.tag}.out.{rank}")
            if mapping.size <= 1:
                continue
            blob = b""
            pos = 0
            while pos < mapping.size:
                take = min(4 * MiB, mapping.size - pos)
                blob += yield from mapping.read(pos, take)
                pos += take
            parts.append(
                np.frombuffer(blob, dtype=np.uint8).reshape(-1, RECORD_BYTES)
            )
        if not parts:
            return np.empty((0, RECORD_BYTES), dtype=np.uint8)
        return np.concatenate(parts)
