"""Write-ahead metadata log + checkpoint for the control plane.

The master's metadata — region descriptors, server membership, the
cluster epoch — must survive a master crash.  :class:`MetaLog` models
the durable medium (in a real deployment an NVMe log or a replicated
metadata region shipped over one-sided writes, per the LSM
index-replication line of work): the master *appends* a record for
every mutating control RPC **before** replying, and a restarted master
*replays* checkpoint + tail to rebuild its state.

Durability discipline:

* Records are serialized at append time (``pickle.dumps``), never kept
  as live object references — a replayed record reflects the state at
  the moment of the append, not whatever the master mutated later.
  That is what makes "append before reply" a real commit point.
* ``append`` is a generator charging :data:`APPEND_LATENCY_S` of
  simulated latency — the fsync the control RPC pays.
* Every ``metalog_checkpoint_every`` appends the master serializes its
  full state and truncates the tail, bounding replay time.  One
  checkpoint is written at a time, and it truncates only the records
  its snapshot covers: appends that land while it is being written
  stay in the tail.

Record kinds (``kind``, payload):

* ``"region"``  — full :class:`~repro.core.region.RegionDesc` snapshot;
  upsert on replay (alloc, promotion and repair all emit this).
* ``"free"``    — region name; delete on replay.
* ``"server"``  — ``(host_id, capacity, rkey, epoch, alive)`` membership
  snapshot; upsert on replay (register and declare-dead both emit it).
* ``"epoch"``   — the new cluster epoch (bumped on recovery and death).
* ``"note"``    — ``(name, payload)`` published notification; upsert on
  replay (rendezvous metadata like ``kv.<name>.meta`` must survive a
  master crash or every later ``open`` waits forever).
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["MetaLog", "RecoveredState"]

#: simulated latency of one metadata-log append (the fsync the
#: master pays before acknowledging a mutating control RPC)
APPEND_LATENCY_S = 5e-6


@dataclass
class RecoveredState:
    """What a restarting master learns from checkpoint + log replay."""

    #: region name -> RegionDesc (deserialized snapshots, safe to mutate)
    regions: dict = field(default_factory=dict)
    #: host_id -> (capacity, rkey, epoch, alive) membership snapshots
    servers: dict = field(default_factory=dict)
    #: last logged cluster epoch
    epoch: int = 0
    #: first region id the restarted master may hand out
    next_region_id: int = 1
    #: name -> payload published notifications
    notes: dict = field(default_factory=dict)


class MetaLog:
    """The durable metadata log.  Owned by the cluster, outlives masters."""

    def __init__(self, sim, append_latency_s: float = APPEND_LATENCY_S,
                 checkpoint_every: int = 64):
        self.sim = sim
        self.append_latency_s = append_latency_s
        self.checkpoint_every = checkpoint_every
        self._checkpoint: bytes | None = None
        self._tail: list[bytes] = []
        self._checkpointing = False
        # counters for tests and the recovery benchmark
        self.appends = 0
        self.checkpoints = 0
        self.replays = 0

    def __len__(self) -> int:
        return len(self._tail)

    def append(self, kind: str, payload: Any):
        """Durably append one record (generator; charges fsync latency).

        The record is serialized *now*: later mutation of the payload
        object cannot reach the log.
        """
        record = pickle.dumps((kind, payload))
        yield self.sim.timeout(self.append_latency_s)
        self._tail.append(record)
        self.appends += 1

    def maybe_checkpoint(self, state_of: Callable[[], RecoveredState]):
        """Checkpoint + truncate once the tail is long enough (generator).

        *state_of* builds the full state; it is called only when a
        checkpoint is due, so an append between checkpoints copies none.
        While one checkpoint is being written, callers return at once.
        """
        if self._checkpointing or len(self._tail) < self.checkpoint_every:
            return
        self._checkpointing = True
        try:
            state = state_of()
            snapshot = pickle.dumps(state)
            covered = len(self._tail)
            # a checkpoint is a full-state write: charge one append per
            # region so big clusters pay proportionally
            cost = self.append_latency_s * max(1, len(state.regions))
            yield self.sim.timeout(cost)
        finally:
            self._checkpointing = False
        self._checkpoint = snapshot
        del self._tail[:covered]
        self.checkpoints += 1

    def replay(self) -> RecoveredState:
        """Rebuild master state from checkpoint + tail (pure, no latency;
        the restarted master charges recovery time elsewhere)."""
        self.replays += 1
        if self._checkpoint is not None:
            state: RecoveredState = pickle.loads(self._checkpoint)
        else:
            state = RecoveredState()
        for raw in self._tail:
            kind, payload = pickle.loads(raw)
            if kind == "region":
                state.regions[payload.name] = payload
            elif kind == "free":
                state.regions.pop(payload, None)
            elif kind == "server":
                host_id, capacity, rkey, epoch, alive = payload
                state.servers[host_id] = (capacity, rkey, epoch, alive)
            elif kind == "epoch":
                state.epoch = max(state.epoch, payload)
            elif kind == "note":
                name, note = payload
                state.notes[name] = note
            else:  # pragma: no cover - corrupt log
                raise ValueError(f"unknown metalog record kind {kind!r}")
        if state.regions:
            state.next_region_id = max(
                state.next_region_id,
                1 + max(r.region_id for r in state.regions.values()),
            )
        return state
