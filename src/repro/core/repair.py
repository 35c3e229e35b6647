"""Background stripe repair: restoring replication after server death.

When the master's lease checker declares a memory server dead it
immediately *promotes* surviving replicas so affected regions stay
available — but the promoted stripes are left degraded (fewer copies
than the region asked for).  The planner here closes that gap entirely
on the control path:

1. degraded stripes are queued as :class:`RepairTask`\\ s;
2. a pool of ``REPAIR_PARALLELISM`` workers picks a replacement server
   (live, not already holding a copy, deterministic most-free choice),
   reserves a slot in the master's slice of it, and drives a
   server→server ``copy_stripe``
   RPC — the *destination* pulls the stripe out of a surviving replica's
   arena with one-sided READs, so the source CPU never runs;
3. the new replica is swapped into the :class:`RegionDesc` atomically
   (one instant of simulated time) and the descriptor ``version`` bumps,
   so clients pick the new layout up on their next lookup or retry.

Clients never participate and the data path stays one-sided throughout.
Writes racing with the copy can land on the survivors after the copy
read them; reads are anchored to the surviving primary, so applications
always see their own writes.  The repaired copy converges for writers
that have remapped (they fan out to it directly); see "Fault model &
recovery" in DESIGN.md for the exact guarantee.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.core.errors import FatalError, MasterUnavailableError
from repro.core.region import StripeReplica
from repro.core.shard import tenant_of

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.master import Master

__all__ = ["RepairTask", "RepairPlanner"]

#: concurrent stripe repairs the planner drives after a server death
#: (each repair is one server→server stripe copy)
REPAIR_PARALLELISM = 4
#: how many times a repair task is re-attempted (fresh target/source)
#: before the planner abandons the stripe as unrepairable for now
REPAIR_ATTEMPT_LIMIT = 5


@dataclass
class RepairTask:
    """One degraded stripe awaiting re-replication."""

    region_name: str
    stripe_index: int
    attempts: int = 0

    def __str__(self) -> str:
        return f"stripe {self.stripe_index} of {self.region_name!r}"


class RepairPlanner:
    """The master's background re-replication engine."""

    def __init__(self, master: "Master"):
        self.master = master
        self.sim = master.sim
        self._queue: deque[RepairTask] = deque()
        self._waiters: list = []
        #: timeline of repair events as ``(sim_time, message)`` pairs
        self.log: list[tuple[float, str]] = []
        #: stripes re-replicated, and tasks given up on
        self.repaired = 0
        self.abandoned = 0

    # -- public surface ------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker pool (called from ``Master.start``)."""
        for idx in range(REPAIR_PARALLELISM):
            self.sim.process(self._worker(), name=f"repair-worker-{idx}")

    def enqueue_degraded(self, region) -> None:
        """Queue every stripe of *region* that is below its target."""
        if not region.available:
            return
        queued = {
            (t.region_name, t.stripe_index) for t in self._queue
        }
        for stripe in region.stripes:
            if stripe.replication >= region.target_replication:
                continue
            key = (region.name, stripe.index)
            if key in queued:
                continue
            self._queue.append(RepairTask(region.name, stripe.index))
            self._note(
                f"queued repair of stripe {stripe.index} of "
                f"{region.name!r} ({stripe.replication}/"
                f"{region.target_replication} copies)"
            )
        self._kick()

    # -- internals -----------------------------------------------------------

    def _note(self, message: str) -> None:
        self.log.append((self.sim.now, message))

    def _kick(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.succeed()

    def _worker(self):
        while self.master.alive:
            if not self._queue:
                event = self.sim.event()
                self._waiters.append(event)
                yield event
                continue
            task = self._queue.popleft()
            try:
                yield from self._repair_stripe(task)
            except MasterUnavailableError:
                return  # this master crashed; its workers die with it
            except FatalError as exc:
                # protocol misuse or unrecoverable state — a retry
                # would hit the exact same wall, so don't spend them
                self.abandoned += 1
                self._note(f"abandoned {task}: fatal: {exc}")
            except Exception as exc:  # noqa: BLE001 - workers must survive
                self._retry_or_abandon(task, str(exc))

    def _retry_or_abandon(self, task: RepairTask, reason: str) -> None:
        task.attempts += 1
        if task.attempts >= REPAIR_ATTEMPT_LIMIT:
            self.abandoned += 1
            self._note(f"abandoned {task}: {reason}")
        else:
            self._note(f"retrying {task} (attempt {task.attempts}): {reason}")
            self._queue.append(task)
            self._kick()

    def _current_stripe(self, task: RepairTask):
        """The live (region, stripe) pair for *task*, or ``(None, None)``
        when the repair is moot (region freed, lost, or already whole)."""
        region = self.master.regions.get(task.region_name)
        if region is None or not region.available:
            return None, None
        if task.stripe_index >= len(region.stripes):
            return None, None
        stripe = region.stripes[task.stripe_index]
        if stripe.replication >= region.target_replication:
            return None, None
        return region, stripe

    def _pick_source(self, stripe) -> Optional[StripeReplica]:
        allocator = self.master.allocator
        for replica in stripe.replicas:
            if allocator.host_alive(replica.host_id):
                return replica
        return None

    def _repair_stripe(self, task: RepairTask):
        region, stripe = self._current_stripe(task)
        if region is None:
            return
        allocator = self.master.allocator
        source = self._pick_source(stripe)
        if source is None:
            # every copy is gone; the lease checker will (or already did)
            # mark the region unavailable — nothing left to copy from
            self.abandoned += 1
            self._note(f"abandoned {task}: no live source replica")
            return
        # the length outlives the copy: the re-validation below may find
        # no stripe left to read it from
        length = stripe.length
        exclude = [r.host_id for r in stripe.replicas]
        replica = allocator.place_replacement(length, exclude)
        if replica is None:
            self._retry_or_abandon(task, "no live server with capacity")
            return

        target = replica.host_id
        # a rollback goes back to the arena the slot came from: if the
        # target dies or rejoins meanwhile, that arena is retired and the
        # release touches nothing live
        arena = allocator.server(target).arena
        try:
            client = yield from self.master._server_client(target)
            # Destination pulls the stripe out of the surviving replica's
            # arena.  Generous timeout so a target dying mid-copy cannot
            # wedge the worker forever.
            timeout_s = 1.0 + length / (64 << 20)
            yield from client.call(
                "copy_stripe",
                source.host_id,
                source.addr,
                source.rkey,
                replica.addr,
                length,
                timeout=timeout_s,
            )
        except Exception as exc:
            arena.release(replica.addr)
            self._retry_or_abandon(task, f"copy via server {target}: {exc}")
            return

        # repair bandwidth is accounted to the tenant whose region is
        # being healed — the isolation story needs the split, not just
        # the cluster total
        self.master.obs.metrics.counter(
            "master.repair_bytes",
            tenant=tenant_of(task.region_name),
            shard=self.master.shard_id,
        ).inc(length)

        # Re-validate before publishing: the cluster may have changed
        # under the copy (region freed, another failure, target died).
        region, stripe = self._current_stripe(task)
        if (
            region is None
            or not allocator.host_alive(target)
            or self._pick_source(stripe) is None
            or any(r.host_id == target for r in stripe.replicas)
        ):
            arena.release(replica.addr)
            self._retry_or_abandon(task, "cluster changed during the copy")
            return

        # Atomic swap: one assignment at one simulated instant.  The
        # descriptor moves to the current epoch so ops against the new
        # replica clear the fence of a freshly re-donated server.
        region.stripes[task.stripe_index] = stripe.with_replica(replica)
        region.version += 1
        region.epoch = self.master.epoch
        # Commit the swap to the metalog: a restarted master must not
        # forget a replica clients may already have seen via lookup.
        # (A crash inside the append window forgets it — harmless, the
        # surviving replicas still hold the data and the reservation
        # died with this master's arena.)
        yield from self.master._log("region", region)
        self.repaired += 1
        self._note(
            f"re-replicated stripe {stripe.index} of {region.name!r} "
            f"onto server {target} ({stripe.replication + 1}/"
            f"{region.target_replication} copies, v{region.version})"
        )
        if stripe.replication + 1 < region.target_replication:
            # lost more than one copy; keep going until whole again
            self._queue.append(RepairTask(task.region_name, task.stripe_index))
            self._kick()
