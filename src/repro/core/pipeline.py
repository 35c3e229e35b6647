"""The client's data-path pipeline: from a planned op to its resolution.

Every data op — ``read``, ``write``, ``read_into``, ``write_from``,
``faa``, ``cas`` — is described once, in :data:`OPS`, and travels one
path: :class:`~repro.core.mapping.Mapping` creates its
:class:`OpFuture`, plans it into pieces and builds one work request per
piece and replica; the WRs are posted either at once through the
per-QP pump (the blocking and ``*_async`` calls) or collected by an
:class:`IoBatch`, which coalesces adjacent same-stripe pieces into
single work requests and posts each QP's share with **one doorbell**
(selective signaling: only the last WR of a doorbell batch, and any
atomic, is signaled)::

    batch = client.batch()
    futs = [batch.read(mapping, off, 64) for off in offsets]   # queue
    yield from batch.flush()                                   # submit
    results = yield from batch.wait_all()                      # collect

Completion ownership: completions belong to the client's
:class:`OpPipeline`, never to the op that submitted them.  It consumes
the data CQ, routing each work completion to its doorbell group and
from there to the futures whose pieces it carries.

Failures are *retryable*: a completion error hands the future to the
pipeline's retry worker, which remaps the region (see
:meth:`Mapping._remap_with_backoff`) and replays only the failed
pieces, up to ``DATA_RETRY_LIMIT`` attempts — except atomics that
reached the NIC, whose outcome is ambiguous (see :meth:`Mapping.faa`).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, NamedTuple, Optional

from repro.core.errors import RegionUnavailableError, StaleEpochError
from repro.rdma.memory import MemoryRegion
from repro.rdma.qp import QueuePair
from repro.rdma.types import Opcode, RdmaError
from repro.rdma.wr import SendWR
from repro.simnet.config import MiB

__all__ = ["OPS", "OpFuture", "IoBatch", "OpPipeline"]

_ATOMIC_OPS = (Opcode.ATOMIC_FAA, Opcode.ATOMIC_CAS)

#: send-queue depth of data QPs (client data paths and the servers'
#: repair copies dial with the same depth)
DATA_SQ_DEPTH = 256
#: outstanding work requests per data QP: a small window keeps
#: servers interleaving between clients (large bursts convoy a
#: server's egress behind one client); real RNIC flow control
#: behaves the same way
DATA_WINDOW_PER_QP = 8
#: outstanding work requests per data QP for explicit ``IoBatch``
#: submissions — callers who opted into batching asked for depth,
#: so their window is deeper than the synchronous default (still
#: capped well under ``DATA_SQ_DEPTH`` to leave room for
#: stragglers of a broken batch)
DATA_BATCH_WINDOW_PER_QP = 32
#: client-side software cost to issue one data operation (address
#: translation, WQE setup) — what RStore adds over raw verbs
ISSUE_OVERHEAD_S = 0.2e-6
#: ceiling on the wire size of one work request: larger transfers
#: split into multiple WRs so concurrent flows interleave on the
#: fabric at this granularity instead of convoying behind
#: multi-megabyte messages
MAX_WIRE_CHUNK = 1 * MiB
#: data-path retries (remap + replay of failed sub-operations) before
#: an error surfaces to the application; the server-op paths and a
#: lock's release CAS honour the same budget
DATA_RETRY_LIMIT = 6


class OpDef(NamedTuple):
    """What distinguishes one data op from the other five."""

    opcode: Opcode
    #: what it does to remote memory: "read", "write" or "atomic"
    access: str
    #: the local buffer is borrowed from the client's staging pool
    #: (else the caller's registered memory, or none for atomics)
    staged: bool
    #: what a zero-length op resolves to without touching the wire
    empty: object
    #: future -> the value a successful op resolves to
    value: Callable


OPS = {
    "read": OpDef(Opcode.RDMA_READ, "read", True, b"",
                  lambda fut: fut._chunk.read_bytes(fut.length)),
    "write": OpDef(Opcode.RDMA_WRITE, "write", True, 0,
                   lambda fut: fut.length),
    "read_into": OpDef(Opcode.RDMA_READ, "read", False, None,
                       lambda fut: None),
    "write_from": OpDef(Opcode.RDMA_WRITE, "write", False, None,
                        lambda fut: None),
    "faa": OpDef(Opcode.ATOMIC_FAA, "atomic", False, None,
                 lambda fut: fut._last_wc.atomic_result),
    "cas": OpDef(Opcode.ATOMIC_CAS, "atomic", False, None,
                 lambda fut: fut._last_wc.atomic_result),
}


class OpFuture:
    """Handle for one in-flight data-path operation.

    Created by :meth:`Mapping._begin` on behalf of every entry point;
    resolves (or fails) when the pipeline has retired every sub-request
    of the op — including any replay rounds the retry worker ran on its
    behalf.  ``yield from fut.wait()`` parks until then and returns the
    op's value (bytes for reads, byte count for writes, the prior word
    for atomics) or raises the op's error.

    A piece is ``(stripe_index, stripe_offset, take, local_cursor)`` —
    enough to replay the sub-operation against a *newer* descriptor
    (stripe geometry is immutable; only replica sets change).  An
    atomic is a one-piece op with no local buffer.
    """

    __slots__ = (
        "client", "mapping", "opcode", "kind", "offset", "length",
        "fan_out", "is_atomic", "compare", "swap",
        "local_mr", "local_addr", "done", "value", "error", "_event",
        "_chunk",
        "_remaining", "_failure", "_failed", "_last_wc",
        "_flush_ambiguous", "_attempts", "trace_id", "_span", "_rsan",
        "after", "followed",
    )

    def __init__(self, client, mapping, opcode: Opcode, kind: str,
                 offset: int, length: int, compare: int, swap: int):
        self.client = client
        self.mapping = mapping
        self.opcode = opcode
        #: a key of :data:`OPS`
        self.kind = kind
        self.offset = offset
        self.length = length
        #: writes land on every replica; reads hit only the primary
        self.fan_out = opcode is Opcode.RDMA_WRITE
        self.is_atomic = opcode in _ATOMIC_OPS
        self.compare = compare
        self.swap = swap
        #: where the op's bytes live locally (none for atomics)
        self.local_mr: Optional[MemoryRegion] = None
        self.local_addr = 0
        self.done = False
        self.value = None
        self.error: Optional[Exception] = None
        self._event = None
        self._chunk = None
        self._remaining = 0
        self._failure: Optional[Exception] = None
        #: pieces whose sub-request failed (candidates for replay)
        self._failed: list[tuple] = []
        self._last_wc = None
        self._flush_ambiguous = False
        self._attempts = 0
        #: an ordered write's predecessor (``IoBatch.write(after=)``) /
        #: a dependent was posted behind this one: neither is replayed
        self.after: Optional[OpFuture] = None
        self.followed = False
        #: per-op trace: a whole-op envelope span from submission to
        #: resolution, id shared by every layer's spans for this op
        tracer = client.obs.tracer
        if tracer.enabled:
            self.trace_id = tracer.next_trace_id()
            self._span = tracer.span(
                f"data.op.{kind}", trace_id=self.trace_id,
                offset=offset, nbytes=length,
            )
        else:
            self.trace_id = None
            self._span = None
        #: sanitizer stamp: one per op, shared by every WR (including
        #: replays) posted on its behalf
        rsan = client.rsan
        self._rsan = (rsan.op_stamp(client._rsan_actor, OPS[kind].access)
                      if rsan.enabled else None)

    def wait(self):
        """Park until the op resolves (generator); return its value."""
        if not self.done:
            tracer = self.client.obs.tracer
            parked = self.client.sim.now if tracer.enabled else None
            if self._event is None:
                self._event = self.client.sim.event()
            yield self._event
            if parked is not None:
                tracer.record("data.future.wait", parked,
                              trace_id=self.trace_id, op=self.kind)
        if self._rsan is not None:
            # the issuer just observed the completion: everything it
            # does from here happens-after this op.  Errors ack too —
            # the op is over either way, and stalling the watermark
            # forever would hide unrelated later races.
            self.client.rsan.op_acked(self._rsan)
        if self.error is not None:
            raise self.error
        return self.value

    # -- resolution (CQ consumer / retry-worker side) -----------------------

    def _resolve(self, value) -> None:
        if self.done:
            return
        self.value = value
        self._finish()

    def _fail(self, exc: Exception) -> None:
        if self.done:
            return
        self.error = exc
        self._finish()

    def _finish(self) -> None:
        self.done = True
        if self._span is not None:
            self._span.finish(ok=self.error is None,
                              attempts=self._attempts + 1)
            self._span = None
        self.mapping._inflight.discard(self)
        if self._chunk is not None:
            self._chunk.release()
            self._chunk = None
        if self._event is not None and not self._event.triggered:
            self._event.succeed()

    # -- sub-request retirement ---------------------------------------------

    def _sub_retired(self, piece, wc=None, error=None,
                     flushed: bool = False) -> None:
        """One sub-request of the current round is over.

        *wc* is its completion if one came back; with neither *wc* nor
        *error* it is an unsignaled WR proven successful by its
        doorbell group.  *error* says it could not even be posted.
        *flushed* says it sat behind an earlier error in its doorbell
        batch: executed if only that request's ack was lost, not if the
        request itself was — which is why flushed atomics are ambiguous.
        """
        if self.done:
            return
        if flushed:
            self._flush_ambiguous = True
            error = RegionUnavailableError(
                "data-path failure: flushed behind an earlier error in "
                "its doorbell batch"
            )
        elif wc is not None:
            self._last_wc = wc
            if not wc.ok:
                detail = wc.detail or ""
                if "stale epoch" in detail:
                    # the server's fence caught a WR stamped with a
                    # descriptor from a previous cluster era; the retry
                    # worker refreshes metadata immediately, no backoff
                    error = StaleEpochError(
                        f"data-path fence: {wc.status.value} {detail}"
                    )
                else:
                    error = RegionUnavailableError(
                        f"data-path failure: {wc.status.value} {detail}"
                    )
        if error is not None:
            if self._failure is None:
                self._failure = error
            self._failed.append(piece)
        self._remaining -= 1
        if self._remaining == 0:
            self.client._io._round_done(self)


class _WrToken:
    """The ``wr_id`` of one work request: the futures/pieces it carries.

    Coalescing merges adjacent WRs, so one token can carry sub-requests
    of several futures; they all retire together.
    """

    __slots__ = ("subs", "group", "retired")

    def __init__(self, subs: list):
        #: list of (future, piece) pairs
        self.subs = subs
        #: the doorbell group, set when the WR is posted in a batch
        self.group: Optional["_Doorbell"] = None
        self.retired = False

    def retire(self, wc=None, error=None, flushed: bool = False) -> None:
        """Deliver this WR's outcome, once, to every sub-request it
        carries (arguments as for :meth:`OpFuture._sub_retired`)."""
        if self.retired:
            return
        self.retired = True
        if self.group is not None:
            self.group.unretired -= 1
        for fut, piece in self.subs:
            fut._sub_retired(piece, wc, error, flushed)


class _Doorbell:
    """One doorbell batch: the unit of selective signaling.

    Only the last WR (and any atomics, which need their result value)
    is signaled.  The tail's success completion proves — via the QP's
    in-post-order delivery — that every unsignaled WR before it
    succeeded too; an error completion breaks the group with RC flush
    semantics instead.
    """

    __slots__ = ("pump", "tokens", "unretired", "credited")

    def __init__(self, pump: "_QpPump", tokens: list[_WrToken]):
        self.pump = pump
        self.tokens = tokens
        self.unretired = len(tokens)
        self.credited = False
        for token in tokens:
            token.group = self


class _QpPump:
    """Per-QP submission throttle honouring the send-queue depth.

    Synchronous singles keep the small interleaving-friendly window;
    explicit batch submissions may fill the deeper batch window (the
    caller asked for depth).  Batch reservations that find no room park
    on ``waiters`` until completions return credit.
    """

    __slots__ = ("qp", "queue", "inflight", "capacity", "batch_capacity",
                 "waiters")

    def __init__(self, qp: QueuePair):
        self.qp = qp
        self.queue: deque[SendWR] = deque()
        self.inflight = 0
        self.capacity = max(1, min(DATA_WINDOW_PER_QP, qp.sq_depth - 8))
        self.batch_capacity = max(
            self.capacity, min(DATA_BATCH_WINDOW_PER_QP, qp.sq_depth // 2)
        )
        self.waiters: list = []

    def submit(self, wr: SendWR) -> None:
        if self.inflight < self.capacity:
            self._post(wr)
        else:
            self.queue.append(wr)

    def reserve(self, want: int) -> int:
        """Claim up to *want* batch slots; returns how many (may be 0)."""
        take = max(0, min(want, self.batch_capacity - self.inflight))
        self.inflight += take
        return take

    def credit(self, n: int) -> None:
        self.inflight -= n
        while self.queue and self.inflight < self.capacity:
            self._post(self.queue.popleft())
        if self.waiters and self.inflight < self.batch_capacity:
            waiters, self.waiters = self.waiters, []
            for event in waiters:
                if not event.triggered:
                    event.succeed()

    def _post(self, wr: SendWR) -> None:
        try:
            self.qp.post_send(wr)
            self.inflight += 1
        except RdmaError as exc:
            wr.wr_id.retire(error=RegionUnavailableError(str(exc)))


def _coalesce(wrs: list[SendWR]) -> list[SendWR]:
    """Merge adjacent pieces into single WRs where the wire allows it.

    Two consecutive WRs merge when they are the same kind of one-sided
    op against contiguous local *and* remote bytes of the same MRs with
    the same wire scaling, and the merged WR stays under the wire-chunk
    ceiling.  The merged token carries both WRs' sub-requests, so
    failure replay still works at piece granularity.
    """
    merged = wrs[:1]  # none, if an ordered write was unstaged
    for wr in wrs[1:]:
        last = merged[-1]
        if (wr.opcode is last.opcode
                and wr.opcode in (Opcode.RDMA_READ, Opcode.RDMA_WRITE)
                and wr.local_mr is not None
                and wr.local_mr is last.local_mr
                and wr.rkey == last.rkey
                and wr.local_addr == last.local_addr + last.length
                and wr.remote_addr == last.remote_addr + last.length
                and (wr.wire_length is None) == (last.wire_length is None)
                and (wr.wire_length is None
                     or wr.wire_length * last.length
                     == last.wire_length * wr.length)
                and last.bytes_on_wire + wr.bytes_on_wire <= MAX_WIRE_CHUNK):
            last.length += wr.length
            if last.wire_length is not None:
                last.wire_length += wr.wire_length
            last.wr_id.subs.extend(wr.wr_id.subs)
        else:
            merged.append(wr)
    return merged


class IoBatch:
    """Collects data-path ops for one flush — across mappings.

    The same six ops as :class:`~repro.core.mapping.Mapping`, queued
    instead of submitted.  ``read``/``write`` stage through the
    client's registered pool (so they may park waiting for staging
    space — generators); the zero-copy and atomic variants queue
    synchronously.  ``flush`` plans every queued op, coalesces adjacent
    pieces per QP, and posts each QP's share in doorbell batches;
    ``wait_all`` parks until every future resolved and returns their
    values in queue order.
    """

    def __init__(self, client):
        self.client = client
        #: futures in queue order (the order ``wait_all`` returns)
        self.futures: list[OpFuture] = []
        #: futures whose local buffer is ready, awaiting the next flush
        self._staged: list[OpFuture] = []
        #: per-QP WR lists accumulated by ``_stage`` during flush
        self._queues: dict[QueuePair, list[SendWR]] = {}
        #: future -> ``(qp, staging sequence)`` of its first staged
        #: piece, or ``None`` once a piece of it went to a second QP
        self._routes: dict[OpFuture, Optional[tuple]] = {}

    def read(self, mapping, offset: int, length: int):
        """Queue a staged read (generator); returns its future."""
        return mapping._start("read", offset, length, batch=self)

    def write(self, mapping, offset: int, payload: bytes,
              after: Optional[OpFuture] = None):
        """Queue a staged write (generator); returns its future.

        With *after* — an earlier write of this batch — the remote NIC
        executes this one only once *after* has executed: it is posted
        behind it on the one QP carrying all of *after* (RC executes in
        post order and nothing past a lost request), or fails at
        staging, unexecuted, where no one QP carries both (stripes on
        two servers, replication, the ``two_sided_data_path`` ablation).
        A failed round fails either half: a replay would break the order.
        """
        return mapping._start("write", offset, len(payload),
                              payload=payload, batch=self, after=after)

    def read_into(self, mapping, local_mr: MemoryRegion, local_addr: int,
                  offset: int, length: int) -> OpFuture:
        """Queue a zero-copy read; returns its future."""
        return self._ready(mapping._begin(
            "read_into", offset, length, local_mr, local_addr, batch=self))

    def write_from(self, mapping, local_mr: MemoryRegion, local_addr: int,
                   offset: int, length: int) -> OpFuture:
        """Queue a zero-copy write; returns its future."""
        return self._ready(mapping._begin(
            "write_from", offset, length, local_mr, local_addr, batch=self))

    def faa(self, mapping, offset: int, delta: int) -> OpFuture:
        """Queue a fetch-and-add; see :meth:`Mapping.faa` for semantics."""
        return self._ready(mapping._begin(
            "faa", offset, 8, compare=delta, batch=self))

    def cas(self, mapping, offset: int, expected: int,
            desired: int) -> OpFuture:
        """Queue a compare-and-swap; returns its future."""
        return self._ready(mapping._begin(
            "cas", offset, 8, compare=expected, swap=desired, batch=self))

    def _ready(self, fut: OpFuture) -> OpFuture:
        """*fut*'s local buffer is in place: it joins the next flush."""
        if not fut.done:
            self._staged.append(fut)
        return fut

    def _stage(self, qp: QueuePair, wr: SendWR) -> None:
        self._queues.setdefault(qp, []).append(wr)
        fut = wr.wr_id.subs[0][0]
        route = self._routes.setdefault(fut, (qp, len(self._routes)))
        if route is not None and route[0] is not qp:
            self._routes[fut] = None

    def in_order(self, first: OpFuture, second: OpFuture) -> bool:
        """Did the remote NIC provably execute all of *first* before any
        of *second*?  Ask once both have resolved.

        True only when this batch staged every piece of both on one and
        the same QP, *first* ahead of *second*, and neither was
        replayed: ``flush`` posts a QP's work requests in staging order
        (``_coalesce`` merges neighbours, never reorders; a window split
        rings several doorbells on that one QP) and an RC queue pair
        executes them in post order.  False — unproven, not disproven —
        for an op whose pieces span servers, for one the retry worker
        replayed (re-posted on its own, whenever its remap finished)
        and under the ``two_sided_data_path`` ablation, which stages
        nothing.
        """
        a, b = self._routes.get(first), self._routes.get(second)
        return (a is not None and b is not None and a[0] is b[0]
                and a[1] < b[1] and first.done and second.done
                and first._attempts == 0 and second._attempts == 0)

    def flush(self):
        """Plan, coalesce and post everything queued (generator).

        Returns the number of work requests posted (after coalescing).
        Each QP's work requests are posted in the order their ops were
        queued — the order :meth:`in_order` vouches for.  The batch is
        reusable: ops queued after a flush go out on the next one.
        """
        staged, self._staged = self._staged, []
        io = self.client._io
        tracer = self.client.obs.tracer
        span = (tracer.span("data.batch.flush", ops=len(staged))
                if tracer.enabled else None)
        for fut in staged:
            if fut.done:
                continue
            try:
                yield from (fut.mapping._submit(fut, batch=self)
                            if fut.after is None else self._submit_behind(fut))
            except Exception as exc:
                fut._fail(exc)
        queues, self._queues = self._queues, {}
        posted = 0
        for qp, wrs in queues.items():
            merged = _coalesce(wrs)
            posted += len(merged)
            yield from io.post_batch(qp, merged)
        if span is not None:
            span.finish(wrs=posted)
        return posted

    def _submit_behind(self, fut: OpFuture):
        """Stage the ordered write *fut* behind its predecessor
        (generator), or raise with nothing of it staged."""
        first = fut.after
        route = self._routes.get(first)
        if route is not None and first._attempts == 0 and first.error is None:
            yield from fut.mapping._submit(fut, batch=self)
            mine = self._routes.get(fut, route)
            if mine is not None and mine[0] is route[0]:
                first.followed = True
                return
            for wrs in self._queues.values():
                wrs[:] = [wr for wr in wrs if wr.wr_id.subs[0][0] is not fut]
        raise RegionUnavailableError(
            "ordered write: no one queue pair carries it and its predecessor")

    def wait_all(self):
        """Park until every queued future resolved (generator).

        Returns the values in queue order; failed ops contribute
        ``None``.  The **first** failure (in queue order) re-raises
        after all futures have resolved, so no op is left dangling.
        """
        results = []
        first_error: Optional[Exception] = None
        for fut in self.futures:
            try:
                value = yield from fut.wait()
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
            else:
                results.append(value)
        if first_error is not None:
            raise first_error
        return results


class OpPipeline:
    """One client's submission windows, completion dispatch and retry
    worker: everything between a built work request and the resolution
    of the futures it carries.
    """

    def __init__(self, client):
        self.client = client
        self.sim = client.sim
        self.nic = client.nic
        self.obs = client.obs
        #: the data CQ every data QP completes into (set by
        #: ``RStoreClient.start``, which creates it)
        self.cq = None
        self._pumps: dict[QueuePair, _QpPump] = {}
        #: futures awaiting remap-and-replay, served FIFO by the worker
        self._retry_queue: deque[OpFuture] = deque()
        self._retry_wakeup = None
        _m = self.obs.metrics
        _host = self.nic.host.host_id
        self.m_ops_completed = _m.counter("client.ops_completed", host=_host)
        self.m_bytes_moved = _m.counter("client.bytes_moved", host=_host)
        self.m_retries = _m.counter("client.retries", host=_host)
        self.m_pieces_replayed = _m.counter("client.pieces_replayed",
                                            host=_host)

    def start(self) -> None:
        """Consume the data CQ and spawn the retry worker."""
        self.cq.consume(self._dispatch)
        self.sim.process(self._retry_worker(), name="client-retry")

    # -- submission ---------------------------------------------------------

    def pump_for(self, qp: QueuePair) -> _QpPump:
        pump = self._pumps.get(qp)
        if pump is None:
            pump = self._pumps[qp] = _QpPump(qp)
        return pump

    def post_batch(self, qp: QueuePair, wrs: list[SendWR]):
        """Post *wrs* in doorbell batches, honouring the pump window.

        Generator: parks on the pump when the batch window is full and
        resumes as completions return credit.  The per-doorbell issue
        overhead is charged here — once per doorbell, not per WR.
        """
        pump = self.pump_for(qp)
        idx = 0
        while idx < len(wrs):
            take = pump.reserve(len(wrs) - idx)
            if take == 0:
                event = self.sim.event()
                pump.waiters.append(event)
                yield event
                continue
            group = wrs[idx:idx + take]
            idx += take
            yield from self.nic.host.cpu.run(ISSUE_OVERHEAD_S)
            self._ring_doorbell(qp, pump, group)

    def _ring_doorbell(self, qp: QueuePair, pump: _QpPump,
                       wrs: list[SendWR]) -> None:
        """One doorbell: selective signaling + atomic admission."""
        tokens = [wr.wr_id for wr in wrs]
        group = _Doorbell(pump, tokens)
        for wr in wrs:
            # atomics stay signaled — their completion carries the
            # fetched value the future resolves with
            wr.signaled = wr.opcode in _ATOMIC_OPS
        wrs[-1].signaled = True
        try:
            qp.post_send_many(wrs)
        except RdmaError as exc:
            # nothing reached the NIC: hand the credit back and fail
            # every carried sub-request so the retry worker replays
            group.credited = True
            pump.credit(len(wrs))
            err = RegionUnavailableError(str(exc))
            for token in tokens:
                token.retire(error=err)

    # -- completion ---------------------------------------------------------

    def _dispatch(self, wc) -> None:
        """Owns every data-path completion: the data CQ's consumer,
        routing each one to its doorbell group and futures."""
        token = wc.wr_id
        if not isinstance(token, _WrToken):
            return
        if self.obs.tracer.enabled and wc._obs_raised is not None:
            self.obs.tracer.record("data.cq.complete", wc._obs_raised,
                                   host=self.nic.host.host_id,
                                   status=wc.status.value)
        group = token.group
        if group is None:
            # synchronous single: one WR, one signaled completion
            pump = self._pumps.get(wc.qp)
            if pump is not None:
                pump.credit(1)
            token.retire(wc)
            return
        if not token.retired:
            token.retire(wc)
            if not wc.ok:
                self._break_group(group, token)
            elif token is group.tokens[-1]:
                # tail success: in-order delivery proves every
                # unsignaled WR before it succeeded
                for earlier in group.tokens:
                    earlier.retire()
        if group.unretired == 0 and not group.credited:
            group.credited = True
            group.pump.credit(len(group.tokens))

    def _break_group(self, group: _Doorbell, err_token: _WrToken) -> None:
        """RC flush semantics for a doorbell batch hit by an error.

        In-order delivery means everything posted *before* the failed
        WR already succeeded (an earlier error would have arrived
        first); everything *after* it is flushed — replayable for
        reads/writes, ambiguous for atomics (behind a lost ack they
        executed, behind a lost request they did not).
        """
        idx = group.tokens.index(err_token)
        for token in group.tokens[:idx]:
            token.retire()
        for token in group.tokens[idx + 1:]:
            token.retire(flushed=True)

    def _round_done(self, fut: OpFuture) -> None:
        """Every sub-request of *fut*'s current round has retired."""
        if fut.done:
            return
        if fut._failure is None:
            self.settle(fut, 0 if fut.is_atomic
                        else fut.length * fut.mapping.wire_scale)
            return
        mapping = fut.mapping
        if fut.after is not None or fut.followed:
            # half of an ordered pair: re-posted on its own it would run
            # out of order — whoever chained the pair redoes it
            fut._fail(RegionUnavailableError(
                f"ordered write failed, never replayed: {fut._failure}"))
            return
        # ``_last_wc`` is only set when a completion (good or bad) came
        # back — i.e. the request made it onto the wire; a flushed
        # atomic is just as ambiguous
        # a fence NAK means the server refused *before* executing, so a
        # fenced atomic is unambiguous and safe to replay
        if fut.is_atomic and (
                fut._last_wc is not None or fut._flush_ambiguous) and (
                not isinstance(fut._failure, StaleEpochError)):
            err = RegionUnavailableError(
                f"atomic on {mapping.name!r} failed after reaching the "
                f"NIC ({fut._failure}); the remote side may have "
                "applied it, so it is not replayed"
            )
            err.__cause__ = fut._failure
            fut._fail(err)
            return
        fut._attempts += 1
        if fut._attempts > DATA_RETRY_LIMIT:
            err = RegionUnavailableError(
                f"{OPS[fut.kind].access} on {mapping.name!r} failed after "
                f"{fut._attempts} attempts: {fut._failure}"
            )
            err.__cause__ = fut._failure
            fut._fail(err)
            return
        if not mapping.active:
            fut._fail(mapping._abandoned())
            return
        self._retry_queue.append(fut)
        if self._retry_wakeup is not None and not self._retry_wakeup.triggered:
            self._retry_wakeup.succeed()

    def settle(self, fut: OpFuture, moved: int) -> None:
        """Count a finished op and resolve its future with its value."""
        self.m_ops_completed.inc()
        self.m_bytes_moved.inc(moved)
        fut._resolve(OPS[fut.kind].value(fut))

    # -- retry --------------------------------------------------------------

    def _retry_worker(self):
        """Background process: remap-and-replay for failed futures.

        Replays are serialized FIFO, so two failed ops never race the
        mapping's descriptor refresh — and whole simulations stay
        deterministic.
        """
        while True:
            while not self._retry_queue:
                self._retry_wakeup = self.sim.event()
                yield self._retry_wakeup
                self._retry_wakeup = None
            fut = self._retry_queue.popleft()
            if fut.done:
                continue
            yield from self._replay(fut)

    def _replay(self, fut: OpFuture):
        """One remap-and-replay round for *fut* (generator).

        Replays only the failed sub-operations against a refreshed
        descriptor (fan-out can fail a piece on several replicas).
        """
        mapping = fut.mapping
        pieces = list(dict.fromkeys(fut._failed))
        # a fenced op holds stale metadata, not a contended resource:
        # refresh immediately instead of backing off
        fenced = isinstance(fut._failure, StaleEpochError)
        if fenced:
            self.client._meta.fenced.inc()
        fut._failed = []
        fut._failure = None
        fut._last_wc = None
        fut._flush_ambiguous = False
        try:
            desc = yield from mapping._remap_with_backoff(fut._attempts,
                                                          immediate=fenced)
        except Exception as exc:
            fut._fail(exc)
            return
        if fut.done:
            return
        if not mapping.active:
            fut._fail(mapping._abandoned())
            return
        self.m_retries.inc()
        self.obs.tracer.event("data.retry.replay", trace_id=fut.trace_id,
                              op=fut.kind, attempt=fut._attempts)
        self.m_pieces_replayed.inc(len(pieces))
        mapping._post_pieces(fut, desc, pieces)
