"""RSan — a happens-before race sanitizer for simulated one-sided RDMA.

One-sided READ / WRITE / FAA / CAS bypass the server CPU entirely, so
nothing on the remote side serializes concurrent clients: two writers
aiming at the same bytes silently interleave, exactly the hazard Storm
and the RDMA-vs-RPC literature document.  RSan makes those hazards
loud.  When enabled it shadows every remote access as
``(actor, byte-range, op-kind, vector clock)`` and reports any pair of
conflicting accesses with no happens-before edge between them.

The happens-before model
------------------------

Each *actor* (one client host, or a server acting as repair copier)
owns a vector clock.  Ordering edges come from the repo's existing
synchronization vocabulary — nothing new is invented:

* **QP FIFO** — two ops from the same actor never race: each
  client-server pair shares one QP and the simulated NIC applies WRs
  in post order, so same-actor accesses are program-ordered.
* **CQ completions** — an op happens-before everything its issuer does
  *after observing the completion* (``OpFuture.wait`` returning).  A
  posted-but-unacked op is still "in flight": a lock released before
  ``wait()`` returns does **not** cover it, which is precisely the
  dropped-future bug class repro-lint RL003 hunts statically.
* **RemoteLock** — release publishes the holder's clock under the lock
  name; a later successful acquire joins it.
* **SenseBarrier** — every arrival publishes under
  ``(barrier, name, generation)``; every departure joins, so all
  pre-barrier work happens-before all post-barrier work.
* **SeqLock** — a writer's ``publish`` releases under the *next*
  version; a validated reader snapshot (or a successful ``try_lock``)
  joins the version it observed.
* **Master control path** — every control RPC releases-then-acquires
  one coarse ``("master", shard)`` key.  This intentionally
  over-synchronizes (alloc/map/lookup serialize through the owning
  single-threaded metadata shard), trading false negatives for zero
  control-path false positives.

The watermark split
-------------------

``_Actor.vc[actor]`` is the actor's *acked* watermark, not a count of
posted ops.  Each tracked op gets a fresh sequence number at NIC post
time and joins ``outstanding``; acking (``OpFuture.wait`` returning)
removes its seqs and advances the watermark to ``min(outstanding) - 1``
— never past an older op still in flight.  Ops that are never waited on
therefore stay unordered w.r.t. other actors forever (their seq stays
above every published watermark), which is exactly the semantics a
dropped async future deserves.  Raw WRs outside the client op layer
(control RPC sends, repair copies) get stamps for bookkeeping but are
never tracked in ``outstanding``, so they cannot stall the watermark.

Exemptions
----------

Coordination primitives are racy *by design* at the byte level (sense
polling vs. the sense flip, seqlock snapshots vs. body writes, counter
polling).  Their internal accesses run inside
``with rsan.exempt(actor):`` scopes — neither checked nor stored — and
order instead flows through the semantic release/acquire keys above.
Server-to-server repair READs are master-coordinated and marked with
``wr.rsan_sync``.

Everything here is pure bookkeeping on Python objects: no simulated
time, no RNG streams, no instruments.  Enabling the sanitizer cannot
perturb what the simulation computes — clean runs are bit-identical
with it on or off, and the disabled path costs one attribute check.
"""

from __future__ import annotations

import sys

__all__ = [
    "Access",
    "OpStamp",
    "RaceReport",
    "RaceSanitizer",
    "rsan_for",
]

#: remote-access kinds that conflict when they overlap with no HB edge.
#: read-read never races; atomic-atomic is serialized by the remote
#: NIC's read-modify-write, so only atomic-vs-plain conflicts count.
_CONFLICTS = {
    "read": ("write", "atomic"),
    "write": ("read", "write", "atomic"),
    "atomic": ("read", "write"),
}

#: stack frames from these path fragments are plumbing, not app code
_PLUMBING = (
    "/repro/core/client.py",
    "/repro/core/mapping.py",
    "/repro/core/pipeline.py",
    "/repro/sanitize/",
    "/repro/coord/",
    "/repro/rdma/",
)


def _site_of() -> str:
    """The innermost non-plumbing frame, as ``dir/file.py:line``.

    Walks raw frames and formats only the one it returns: this runs once
    per stamped op, and ``traceback.extract_stack`` would build a
    summary (with a source-line lookup) for every frame on the stack.
    """
    frame = sys._getframe(1)
    while frame is not None:
        fname = frame.f_code.co_filename.replace("\\", "/")
        if not any(part in fname for part in _PLUMBING):
            parts = fname.rsplit("/", 2)
            short = "/".join(parts[-2:]) if len(parts) > 1 else fname
            return f"{short}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _Actor:
    """Per-actor sanitizer state."""

    __slots__ = ("vc", "posted", "exempt", "outstanding")

    def __init__(self, actor_id: int):
        #: vector clock; ``vc[actor_id]`` is the *acked* watermark
        self.vc: dict[int, int] = {actor_id: 0}
        #: last sequence number handed to a posted access
        self.posted = 0
        #: nesting depth of ambient ``exempt`` scopes
        self.exempt = 0
        #: seqs of tracked (client-layer) ops posted but not yet acked
        self.outstanding: set[int] = set()


class OpStamp:
    """Sanitizer identity of one logical client op (one OpFuture).

    Created once per future; replays of failed pieces reuse the same
    stamp, appending fresh sequence numbers, so the op acks as one unit
    however many times its pieces were reposted.
    """

    __slots__ = ("actor", "kind", "site", "sync", "seqs", "acked")

    def __init__(self, actor: int, kind: str, site: str, sync: bool):
        self.actor = actor
        self.kind = kind
        self.site = site
        #: issued inside an exempt scope (coordination internals)
        self.sync = sync
        #: sequence numbers of every WR posted for this op
        self.seqs: list[int] = []
        self.acked = False


class Access:
    """One recorded remote access to ``[lo, hi)`` on one server."""

    __slots__ = ("actor", "kind", "site", "seq", "vec", "lo", "hi")

    def __init__(self, actor, kind, site, seq, vec, lo, hi):
        self.actor = actor
        self.kind = kind
        self.site = site
        self.seq = seq
        #: issuer's vector clock snapshot at post time
        self.vec = vec
        self.lo = lo
        self.hi = hi

    def describe(self) -> str:
        return (f"{self.kind} by client {self.actor} at {self.site} "
                f"(bytes [{self.lo}, {self.hi}))")


class RaceReport:
    """Two conflicting, concurrent accesses to overlapping bytes."""

    __slots__ = ("host", "lo", "hi", "first", "second")

    def __init__(self, host, lo, hi, first: Access, second: Access):
        self.host = host
        self.lo = lo
        self.hi = hi
        self.first = first
        self.second = second

    def describe(self) -> str:
        return (
            f"data race on server {self.host} bytes [{self.lo}, {self.hi}):\n"
            f"  {self.first.describe()}\n"
            f"  {self.second.describe()}"
        )


class _ExemptScope:
    """``with rsan.exempt(actor):`` — accesses inside are not checked."""

    __slots__ = ("_rsan", "_actor", "_entered")

    def __init__(self, rsan: "RaceSanitizer", actor: int):
        self._rsan = rsan
        self._actor = actor

    def __enter__(self):
        # remember whether we bumped the counter, so an enable() that
        # lands mid-scope cannot underflow it on exit
        self._entered = self._rsan.enabled
        if self._entered:
            self._rsan.actor(self._actor).exempt += 1
        return self

    def __exit__(self, *exc):
        if self._entered:
            self._rsan.actor(self._actor).exempt -= 1
        return False


class RaceSanitizer:
    """Happens-before race detection over simulated one-sided RDMA."""

    def __init__(self, sim):
        self.sim = sim
        self.enabled = False
        self.actors: dict[int, _Actor] = {}
        #: shadow store: server host id -> recorded accesses
        self.shadow: dict[int, list[Access]] = {}
        #: published clocks per sync key (lock names, barrier epochs, …)
        self._sync: dict[tuple, dict[int, int]] = {}
        self.races: list[RaceReport] = []
        self._reported: set[frozenset] = set()
        #: transaction outcomes observed (see :meth:`txn_commit`)
        self.txn_commits = 0
        self.txn_aborts = 0

    # -- lifecycle ------------------------------------------------------------

    def enable(self):
        self.enabled = True

    def actor(self, actor_id: int) -> _Actor:
        act = self.actors.get(actor_id)
        if act is None:
            act = _Actor(actor_id)
            self.actors[actor_id] = act
        return act

    # -- stamping and posting -------------------------------------------------

    def op_stamp(self, actor_id: int, kind: str) -> OpStamp:
        """A stamp for one client-layer op; captures the app call site
        unless the op is exempt, whose accesses nobody records."""
        if self.actor(actor_id).exempt:
            return OpStamp(actor_id, kind, "<exempt>", True)
        return OpStamp(actor_id, kind, _site_of(), False)

    def on_post(self, wr, default_actor: int):
        """Assign this WR its sequence number and clock snapshot.

        Called at the NIC post point — not at WR creation — because the
        per-QP pump may defer posting, and the clock must reflect what
        the actor had synchronized *when the WR hit the wire*.
        """
        stamp = wr.rsan
        if stamp is None:
            # raw WR outside the client op layer (control RPC send,
            # repair copy).  Stamp it for bookkeeping but never track
            # it in ``outstanding`` — nothing will ever wait on it.
            stamp = OpStamp(default_actor, "raw", "<internal>", wr.rsan_sync)
            wr.rsan = stamp
        act = self.actor(stamp.actor)
        act.posted += 1
        seq = act.posted
        stamp.seqs.append(seq)
        raw = stamp.kind == "raw"
        if not stamp.acked and not raw:
            act.outstanding.add(seq)
        wr._rsan_seq = seq
        if not (raw or stamp.sync):  # on_apply skips those unread
            wr._rsan_vec = dict(act.vc)

    def op_acked(self, stamp: OpStamp):
        """The issuer observed this op's completion (``wait`` returned).

        Everything the actor does from here on happens-after the op:
        drop its seqs from ``outstanding`` and advance the acked
        watermark — but never past an older op still in flight.
        """
        if stamp.acked:
            return
        stamp.acked = True
        act = self.actor(stamp.actor)
        act.outstanding.difference_update(stamp.seqs)
        watermark = (min(act.outstanding) - 1 if act.outstanding
                     else act.posted)
        if watermark > act.vc.get(stamp.actor, 0):
            act.vc[stamp.actor] = watermark

    # -- happens-before -------------------------------------------------------

    @staticmethod
    def _hb(old: Access, new: Access) -> bool:
        """Did *old* happen-before *new*?"""
        return old.seq <= new.vec.get(old.actor, 0)

    def sync_release(self, actor_id: int, key: tuple):
        """Publish *actor*'s clock under *key* (pointwise max merge)."""
        if not self.enabled:
            return
        act = self.actor(actor_id)
        slot = self._sync.setdefault(key, {})
        for aid, clock in act.vc.items():
            if clock > slot.get(aid, 0):
                slot[aid] = clock

    def sync_acquire(self, actor_id: int, key: tuple):
        """Join the clock published under *key* into *actor*'s clock."""
        if not self.enabled:
            return
        slot = self._sync.get(key)
        if not slot:
            return
        vc = self.actor(actor_id).vc
        for aid, clock in slot.items():
            if clock > vc.get(aid, 0):
                vc[aid] = clock

    def exempt(self, actor_id: int) -> _ExemptScope:
        return _ExemptScope(self, actor_id)

    # -- transaction edges ----------------------------------------------------

    def txn_commit(self, actor_id: int, read_keys=(), write_keys=()):
        """A transaction committed: its edges become happens-before.

        The runtime (:mod:`repro.txn`) joins the clock of every
        validated read version (*read_keys*) — the committed snapshot
        happens-after the writers that published it — and releases the
        actor's clock under every published version (*write_keys*), so
        later validated readers of those versions happen-after
        *everything* this transaction's client had acked at commit.
        Aborted transactions publish no edges at all: their snapshots
        never ordered anything (see :meth:`txn_abort`).
        """
        if not self.enabled:
            return
        for key in read_keys:
            self.sync_acquire(actor_id, key)
        for key in write_keys:
            self.sync_release(actor_id, key)
        self.txn_commits += 1

    def txn_abort(self, actor_id: int):
        """A transaction aborted: intent locks were rolled back and no
        happens-before edge was published (counted for reporting)."""
        if not self.enabled:
            return
        self.txn_aborts += 1

    # -- recording and checking -----------------------------------------------

    def on_apply(self, host_id: int, addr: int, length: int, kind: str, wr):
        """One remote access landed on *host_id*; check and record it."""
        if length <= 0:
            return
        stamp: OpStamp = wr.rsan
        if stamp.sync or stamp.kind == "raw":
            return  # coordination internals / control plumbing
        new = Access(stamp.actor, kind, stamp.site, wr._rsan_seq,
                     wr._rsan_vec, addr, addr + length)
        records = self.shadow.setdefault(host_id, [])
        conflicts = _CONFLICTS[kind]
        keep = []
        for old in records:
            if old.hi <= new.lo or new.hi <= old.lo:
                keep.append(old)
                continue
            same_actor = old.actor == new.actor
            ordered = same_actor or self._hb(old, new)
            if not ordered and old.kind in conflicts:
                self._report(host_id, old, new)
            # prune *old* if *new* fully covers it, dominates its
            # conflict set, and is ordered after it — any later access
            # racing old would also race new, so old is redundant.
            covered = old.lo >= new.lo and old.hi <= new.hi
            dominated = kind == "write" or old.kind == kind
            if not (covered and dominated and ordered):
                keep.append(old)
        keep.append(new)
        self.shadow[host_id] = keep

    def _report(self, host_id: int, old: Access, new: Access):
        # one report per pair of access sites, however many stripes or
        # overlapping byte windows the race spans
        key = frozenset({(old.actor, old.site, old.kind),
                         (new.actor, new.site, new.kind)})
        if key in self._reported:
            return
        self._reported.add(key)
        lo = max(old.lo, new.lo)
        hi = min(old.hi, new.hi)
        self.races.append(RaceReport(host_id, lo, hi, old, new))

    # -- teardown -------------------------------------------------------------

    def clear_range(self, host_id: int, lo: int, hi: int, actor):
        """Drop shadow records overlapping ``[lo, hi)`` on *host_id*.

        With an *actor*, only that actor's records go (a client
        unmapping); with ``None``, every record goes (the master freeing
        the region).
        """
        records = self.shadow.get(host_id)
        if not records:
            return
        self.shadow[host_id] = [
            a for a in records
            if a.hi <= lo or hi <= a.lo
            or (actor is not None and a.actor != actor)
        ]

    def clear_region(self, desc, actor):
        """Drop shadow state for every replica byte range of *desc*."""
        for stripe in desc.stripes:
            for replica in stripe.replicas:
                self.clear_range(replica.host_id, replica.addr,
                                 replica.addr + stripe.length, actor=actor)

    # -- reporting ------------------------------------------------------------

    def report(self) -> str:
        if not self.races:
            return "rsan: no data races detected"
        lines = [f"rsan: {len(self.races)} data race(s) detected"]
        lines.extend(race.describe() for race in self.races)
        return "\n".join(lines)


def rsan_for(sim) -> RaceSanitizer:
    """The :class:`RaceSanitizer` of *sim* (created lazily, disabled)."""
    ctx = sim.rsan
    if ctx is None:
        ctx = sim.rsan = RaceSanitizer(sim)
    return ctx
