"""A Hadoop-TeraSort-class comparator.

Faithful to the map-reduce pipeline the paper measured against, pass by
pass (every byte count below is logical, i.e. wire-scaled):

1. **Map**: read the input split from local disk; partition records by
   the sampled splitters (trie partitioner stand-in); per-record
   framework CPU cost.
2. **Spill**: sort map output runs and write them back to local disk.
3. **Shuffle**: every reducer fetches its partition from every mapper
   over TCP; fetched bytes are written to the reducer's local disk
   (Hadoop spills shuffle input that exceeds memory — at TeraSort
   scale it always does).
4. **Merge + reduce**: read the spilled partitions, merge-sort them,
   write the final output to disk.

Each node owns ``disks_per_node`` spindles (modelled as one aggregate
disk) and the whole pipeline runs through the same fabric and CPU
models as RStore, so the comparison isolates the architecture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.cluster.builder import Cluster
from repro.disk.disk import Disk, DiskModel
from repro.net.mesh import build_full_mesh
from repro.simnet.resources import Store
from repro.sort.rsort import key_prefix_u64, sort_order
from repro.workloads.kv import RECORD_BYTES, generate_records

__all__ = ["TeraSortModel", "TeraSortBaseline"]

_PORT = 7610
_SAMPLES_PER_WORKER = 128


@dataclass
class TeraSortModel:
    """Hadoop-era cost parameters (per node)."""

    #: spindles per node; they stripe, so IO runs at disks * bandwidth
    #: (a well-provisioned 2014 Hadoop node carried 4-12 drives)
    disks_per_node: int = 5
    #: sequential bandwidth per spindle (bytes/s)
    disk_bandwidth_Bps: float = 150e6
    #: framework cost per record in the map path (deserialize, collect)
    map_per_record_s: float = 300e-9
    #: framework cost per record in the reduce path
    reduce_per_record_s: float = 300e-9
    #: one comparison during spill sort / merge
    per_compare_s: float = 15e-9
    #: records processed on this many cores in parallel
    cores_used: int = 8

    def map_cost(self, records: int) -> float:
        return records * self.map_per_record_s / self.cores_used

    def reduce_cost(self, records: int) -> float:
        return records * self.reduce_per_record_s / self.cores_used

    def sort_cost(self, records: int) -> float:
        if records < 2:
            return 0.0
        return records * math.log2(records) * self.per_compare_s / self.cores_used


class TeraSortBaseline:
    """Distributed sort the Hadoop way: disks, JVM-class CPU, sockets."""

    def __init__(
        self,
        cluster: Cluster,
        records_per_worker: int,
        worker_hosts: Optional[list[int]] = None,
        scale: int = 1,
        seed: int = 0,
        tag: str = "tera",
    ):
        if records_per_worker < 1:
            raise ValueError("need at least one record per worker")
        self.cluster = cluster
        self.records_per_worker = records_per_worker
        self.worker_hosts = worker_hosts or list(range(cluster.num_machines))
        self.scale = scale
        self.seed = seed
        self.model = TeraSortModel()
        self.tag = tag
        self._outputs: dict[int, np.ndarray] = {}

    @property
    def num_workers(self) -> int:
        return len(self.worker_hosts)

    @property
    def total_records(self) -> int:
        return self.records_per_worker * self.num_workers

    @property
    def logical_bytes(self) -> int:
        return self.total_records * RECORD_BYTES * self.scale

    def run(self):
        """Execute the job (generator); returns timing stats."""
        sim = self.cluster.sim
        stacks = {
            rank: self.cluster.tcp_stacks[host]
            for rank, host in enumerate(self.worker_hosts)
        }
        port = _PORT + sum(self.tag.encode()) % 89
        sockets = yield from build_full_mesh(sim, stacks, port)
        # one queue per message kind: a fast peer's shuffle records must
        # not jump ahead of a slow peer's pending splitters broadcast
        inboxes = {
            rank: {k: Store(sim) for k in ("sample", "splitters", "records")}
            for rank in range(self.num_workers)
        }
        for rank in range(self.num_workers):
            for sock in sockets[rank].values():
                sim.process(self._pump(sock, inboxes[rank]))

        stats = SimpleNamespace(elapsed=0.0, logical_bytes=self.logical_bytes)
        t0 = sim.now
        procs = [
            sim.process(
                self._worker(rank, sockets[rank], inboxes[rank]),
                name=f"{self.tag}-node-{rank}",
            )
            for rank in range(self.num_workers)
        ]
        yield sim.all_of(procs)
        stats.elapsed = sim.now - t0
        stats.throughput_Bps = (
            self.logical_bytes / stats.elapsed if stats.elapsed > 0 else 0.0
        )
        return stats

    @staticmethod
    def _pump(sock, inbox):
        while True:
            msg = yield from sock.recv()
            if msg is None:
                return
            inbox[msg[0]].put(msg)

    def _worker(self, rank: int, peers: dict, inbox: Store):
        model = self.model
        host_id = self.worker_hosts[rank]
        cpu = self.cluster.net.host(host_id).cpu
        # the node's spindles stripe: one disk at their summed bandwidth
        disk = Disk(self.cluster.sim, DiskModel(
            read_bandwidth_Bps=model.disk_bandwidth_Bps
            * model.disks_per_node,
            write_bandwidth_Bps=model.disk_bandwidth_Bps
            * model.disks_per_node * 0.9,
        ), name=f"{self.tag}-disk-{rank}")
        workers = self.num_workers
        logical_records = self.records_per_worker * self.scale
        logical_slice = logical_records * RECORD_BYTES

        # -- map phase: read split, sample, partition ----------------------
        records = generate_records(self.records_per_worker, seed=self.seed + rank)
        yield from disk.read(logical_slice)
        yield from cpu.run(model.map_cost(logical_records))
        prefixes = key_prefix_u64(records)

        rng = np.random.default_rng(self.seed + 2000 + rank)
        sample = rng.choice(
            prefixes, size=min(_SAMPLES_PER_WORKER, len(prefixes)),
            replace=False,
        )
        if rank == 0:
            gathered = list(sample)
            for _ in range(workers - 1):
                _kind, _sender, payload = yield inbox["sample"].get()
                gathered.extend(payload)
            gathered.sort()
            splitters = [
                gathered[(i + 1) * len(gathered) // workers - 1]
                for i in range(workers - 1)
            ]
            for peer_sock in peers.values():
                yield from peer_sock.send(("splitters", rank, splitters))
        else:
            yield from peers[0].send(("sample", rank, sample.tolist()))
            _kind, _sender, splitters = yield inbox["splitters"].get()
        splitters = np.array(splitters, dtype=np.uint64)
        dest = np.searchsorted(splitters, prefixes, side="right")

        # -- spill: sorted runs to local disk --------------------------------
        yield from cpu.run(model.sort_cost(logical_records))
        yield from disk.write(logical_slice)

        # -- shuffle: send partitions, spill received bytes -------------------
        mine = [records[dest == rank]]
        for peer in range(workers):
            if peer == rank:
                continue
            chunk = records[dest == peer]
            # read the run segment back from disk before sending
            chunk_logical = len(chunk) * RECORD_BYTES * self.scale
            yield from disk.read(chunk_logical)
            yield from peers[peer].send(
                ("records", rank, chunk.tobytes()),
                wire_size=max(chunk_logical, 1),
            )
        received_logical = 0
        for _ in range(workers - 1):
            _kind, _sender, blob = yield inbox["records"].get()
            part = np.frombuffer(blob, dtype=np.uint8).reshape(-1, RECORD_BYTES)
            mine.append(part)
            part_logical = len(part) * RECORD_BYTES * self.scale
            received_logical += part_logical
            yield from disk.write(part_logical)

        # -- merge + reduce: read spills, merge, write output -----------------
        my_records = np.concatenate(mine) if mine else records[:0]
        my_logical = len(my_records) * self.scale
        yield from disk.read(received_logical)
        yield from cpu.run(model.sort_cost(my_logical))
        yield from cpu.run(model.reduce_cost(my_logical))
        my_records = my_records[sort_order(my_records)] if len(my_records) else my_records
        yield from disk.write(my_logical * RECORD_BYTES)
        self._outputs[rank] = my_records

    def collect_output(self) -> np.ndarray:
        """Concatenated global output (after run) — test support."""
        parts = [
            self._outputs[r]
            for r in range(self.num_workers)
            if len(self._outputs.get(r, ()))
        ]
        if not parts:
            return np.empty((0, RECORD_BYTES), dtype=np.uint8)
        return np.concatenate(parts)
