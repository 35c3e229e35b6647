"""A mapped region: the data-path handle.

``client.map`` resolves everything an IO will ever need — per-stripe
server, remote address, rkey, and a connected QP per server — so every
op here translates to one-sided RDMA with pure local arithmetic::

    yield from mapping.write(0, b"...")
    data = yield from mapping.read(0, 4096)
    old = yield from mapping.faa(8, 1)

Each of the six ops has one definition (:data:`repro.core.pipeline.OPS`)
and one way in: :meth:`Mapping._begin` creates its future and
:meth:`Mapping._submit` plans it into pieces and posts one work request
per piece and replica.  The blocking call waits on the future, the
``*_async`` call hands it back, and :class:`~repro.core.pipeline.IoBatch`
queues it for its next flush — submit-now versus stage-for-flush is the
only difference between the three.
"""

from __future__ import annotations

from typing import Optional

from repro.core.errors import (
    BoundsError,
    NotMappedError,
    RecoverableError,
    RegionUnavailableError,
    RStoreError,
)
from repro.coord.base import Backoff
from repro.core.pipeline import (
    ISSUE_OVERHEAD_S,
    MAX_WIRE_CHUNK,
    OPS,
    OpFuture,
    _WrToken,
)
from repro.core.region import RegionDesc
from repro.core.shard import RETRY_BACKOFF_BASE_S, RETRY_BACKOFF_MAX_S
from repro.rdma.memory import MemoryRegion
from repro.rdma.types import Opcode, QpState, RdmaError
from repro.rdma.wr import SendWR
from repro.rpc.channel import MSG_SIZE
from repro.rpc.endpoint import RpcRemoteError

__all__ = ["Mapping"]


class Mapping:
    """A mapped region: the data-path handle."""

    def __init__(self, client, desc: RegionDesc, wire_scale: int):
        self.client = client
        self.desc = desc
        #: wire bytes each real byte of a read or write stands for
        #: (scaled experiments); atomics are never scaled
        self.wire_scale = wire_scale
        #: the metadata shard owning this region's name — stamped onto
        #: every WR so servers fence against the right shard's epoch
        self.shard = client._router.shard_of(desc.name)
        self.active = True
        #: futures submitted and not yet resolved
        self._inflight: set = set()

    @property
    def name(self) -> str:
        return self.desc.name

    @property
    def size(self) -> int:
        return self.desc.size

    def unmap(self) -> None:
        """Drop the mapping (QPs stay cached client-wide).

        Async ops still in flight fail deterministically with
        :class:`NotMappedError` — their futures resolve at the current
        instant instead of leaving parked processes dangling; late
        completions for their WRs are ignored by the pipeline.
        """
        self.active = False
        for fut in list(self._inflight):
            fut._fail(self._abandoned())
        rsan = self.client.rsan
        if rsan.enabled:
            # this client is done with the region: drop its shadow
            # intervals so a recycled range is never attributed to it
            rsan.clear_region(self.desc, actor=self.client._rsan_actor)

    def _connect(self):
        """Connect what this mapping's data path needs beyond the data
        QPs ``map`` dials (generator): nothing, one-sided."""
        yield from ()

    # -- blocking data path (submit + wait) ---------------------------------

    def read(self, offset: int, length: int):
        """Read bytes (generator) via the staging pool."""
        fut = yield from self._start("read", offset, length)
        data = yield from fut.wait()
        return data

    def write(self, offset: int, payload: bytes):
        """Write bytes (generator) via the staging pool."""
        fut = yield from self._start("write", offset, len(payload),
                                     payload=payload)
        count = yield from fut.wait()
        return count

    def read_into(self, local_mr: MemoryRegion, local_addr: int,
                  offset: int, length: int):
        """Zero-copy read into a caller-registered buffer (generator)."""
        fut = yield from self._start("read_into", offset, length,
                                     local_mr, local_addr)
        yield from fut.wait()

    def write_from(self, local_mr: MemoryRegion, local_addr: int,
                   offset: int, length: int):
        """Zero-copy write from a caller-registered buffer (generator)."""
        fut = yield from self._start("write_from", offset, length,
                                     local_mr, local_addr)
        yield from fut.wait()

    def faa(self, offset: int, delta: int):
        """Remote fetch-and-add on an 8-byte counter (generator).

        Atomics are **never replayed** once they reach the NIC: a
        completion error on such an op raises ``RegionUnavailableError``
        immediately, because the remote side may already have applied
        it — a blind replay could add *delta* twice.  Failures before
        anything hit the wire (dead QP, post rejection, a fence NAK)
        still remap and retry transparently; they cannot have side
        effects.
        """
        fut = yield from self._start("faa", offset, 8, compare=delta)
        old = yield from fut.wait()
        return old

    # -- asynchronous compare-and-swap: submit now, hand the future back ----

    def cas_async(self, offset: int, expected: int, desired: int):
        """Submit a compare-and-swap (generator); returns its future."""
        return self._start("cas", offset, 8, compare=expected, swap=desired)

    # -- the one path under every op -----------------------------------------

    def _check_usable(self):
        if not self.active:
            raise NotMappedError(f"region {self.name!r} is not mapped")

    def _abandoned(self) -> NotMappedError:
        return NotMappedError(
            f"region {self.name!r} was unmapped with the operation in flight"
        )

    def _begin(self, kind: str, offset: int, length: int,
               local_mr: Optional[MemoryRegion] = None,
               local_addr: int = 0, compare: int = 0, swap: int = 0,
               batch=None,
               after: Optional[OpFuture] = None) -> OpFuture:
        """Create the future of one op — the only place one is made.

        A zero-length op resolves here, off the wire; an op begun for a
        *batch* joins its wait list at birth.
        """
        self._check_usable()
        op = OPS[kind]
        if op.access == "atomic" and offset % 8 != 0:
            raise BoundsError(f"atomic offset {offset} not 8-byte aligned")
        fut = OpFuture(self.client, self, op.opcode, kind, offset, length,
                       compare, swap)
        fut.local_mr = local_mr
        fut.local_addr = local_addr
        fut.after = after
        if batch is not None:
            batch.futures.append(fut)
        if length == 0:
            fut._resolve(op.empty)
        return fut

    def _start(self, kind: str, offset: int, length: int, *where,
               payload: Optional[bytes] = None, batch=None, **operands):
        """Begin one op, stage its buffer, then submit it — or, given a
        *batch*, queue it for the next flush (generator); returns the
        future.  A submit failure fails the future *and* raises."""
        fut = self._begin(kind, offset, length, *where, batch=batch,
                          **operands)
        if fut.done:
            return fut
        if OPS[kind].staged:
            client = self.client
            chunk = yield from client._staging.alloc(length)
            fut._chunk = chunk
            fut.local_mr = chunk.mr
            fut.local_addr = chunk.addr
            if payload is not None:
                yield from client.nic.host.cpu.copy(length)
                chunk.write_bytes(payload)
        if batch is not None:
            return batch._ready(fut)
        try:
            yield from self._submit(fut, None)
        except Exception as exc:
            fut._fail(exc)
            raise
        return fut

    def _submit(self, fut: OpFuture, batch):
        """Plan and post one future (generator).

        Synchronous reads and writes (``batch is None``) pay the per-op
        issue overhead here and post through the per-QP pump; batched
        ones stage WRs on the batch, which charges the overhead once
        per doorbell instead.  A synchronous atomic carries no payload
        to set up and pays no issue overhead at all.
        """
        span = self._open_span(fut)
        if batch is None and not fut.is_atomic:
            yield from self.client.nic.host.cpu.run(ISSUE_OVERHEAD_S)
        self._dispatch(fut, self.desc, batch, span)

    def _open_span(self, fut: OpFuture):
        self._check_usable()
        tracer = self.client.obs.tracer
        # tracing off builds no span and no finish() keywords
        return (tracer.span("data.client.submit", trace_id=fut.trace_id,
                            op=fut.kind) if tracer.enabled else None)

    def _dispatch(self, fut: OpFuture, desc: RegionDesc, batch, span):
        """Post *fut* against *desc* over one-sided RDMA."""
        if not desc.available:
            if span is not None:
                span.finish(ok=False)
            raise RegionUnavailableError(desc.unavailable_reason)
        self._inflight.add(fut)
        pieces = self._plan_pieces(desc, fut)
        self._post_pieces(fut, desc, pieces, batch=batch)
        if span is not None:
            span.finish(pieces=len(pieces))

    def _scale_of(self, fut: OpFuture) -> int:
        # an atomic's 8 bytes stay 8 on the wire, and stay one piece
        return 1 if fut.is_atomic else self.wire_scale

    def _plan_pieces(self, desc: RegionDesc, fut: OpFuture) -> list[tuple]:
        # split stripe pieces further so no single WR exceeds the wire
        # chunk ceiling (keeps concurrent flows interleaving fairly)
        chunk = max(1, MAX_WIRE_CHUNK // self._scale_of(fut))
        pieces = []
        cursor = fut.local_addr
        for stripe, stripe_off, take in desc.locate(fut.offset, fut.length):
            pos = 0
            while pos < take:
                part = min(chunk, take - pos)
                pieces.append((stripe.index, stripe_off + pos, part, cursor))
                cursor += part
                pos += part
        if fut.is_atomic:
            if len(pieces) != 1:
                raise BoundsError("atomic target spans a stripe boundary")
            if desc.stripes[pieces[0][0]].replication > 1:
                raise RStoreError(
                    "atomics on replicated regions are not supported: a "
                    "NIC-side atomic cannot be mirrored consistently"
                )
        return pieces

    def _post_pieces(self, fut: OpFuture, desc: RegionDesc, pieces,
                     batch=None) -> None:
        """Post (or stage) sub-requests for *pieces* on behalf of *fut*."""
        io = self.client._io
        qps = self.client._data_qps
        scale = self._scale_of(fut)
        plans = []
        total = 0
        for piece in pieces:
            stripe = desc.stripes[piece[0]]
            targets = stripe.replicas if fut.fan_out else (stripe.primary,)
            plans.append((piece, targets))
            total += len(targets)
        # account for the whole round before posting: sub-requests can
        # retire synchronously (dead QP) without ending the round early
        fut._remaining += total
        for piece, targets in plans:
            _index, stripe_off, take, cursor = piece
            for replica in targets:
                qp = qps.get(replica.host_id)
                if qp is None or qp.state is not QpState.CONNECTED:
                    fut._sub_retired(piece, error=NotMappedError(
                        f"no usable data QP for server {replica.host_id}"
                    ))
                    continue
                wr = SendWR(
                    opcode=fut.opcode,
                    wr_id=_WrToken([(fut, piece)]),
                    local_mr=fut.local_mr,
                    local_addr=cursor,
                    length=take,
                    remote_addr=replica.addr + stripe_off,
                    rkey=replica.rkey,
                    compare=fut.compare,
                    swap=fut.swap,
                    wire_length=take * scale if scale != 1 else None,
                )
                # stamp the descriptor's era (and its shard, so the
                # fence compares against the right epoch sequence) —
                # a server re-donated since we mapped bounces the access
                wr.epoch = desc.epoch
                wr.shard = self.shard
                if fut._rsan is not None:
                    wr.rsan = fut._rsan
                if batch is None:
                    io.pump_for(qp).submit(wr)
                else:
                    batch._stage(qp, wr)

    def _remap_with_backoff(self, attempt: int, immediate: bool = False):
        """Back off, re-``lookup``, rebuild QP tables (generator).

        Backoff is capped exponential with deterministic jitter (the
        client's private :func:`derive_rng` stream), so concurrent
        retriers spread out yet whole simulations stay reproducible.
        ``immediate`` skips the sleep — a fenced (stale-epoch) op is
        not contending for anything, its metadata is just old, so the
        right move is to refresh right away.  Returns the descriptor
        the replay should use; *recoverable* control-path failures keep
        the current one (the next attempt tries again), while fatal
        ones — deadline misses, freed regions — propagate and fail the
        op fast.
        """
        client = self.client
        if not immediate:
            backoff = Backoff(client.sim, client._retry_rng,
                              RETRY_BACKOFF_BASE_S, RETRY_BACKOFF_MAX_S)
            # the future, not the mapping, counts attempts: resume the
            # doubling where this op's earlier replays left it
            backoff.attempt = attempt - 1
            yield from backoff.pause()
        try:
            desc = yield from client.lookup(self.name)
        except (RecoverableError, RpcRemoteError):
            return self.desc  # transient master-side failure
        if not desc.available:
            raise RegionUnavailableError(desc.unavailable_reason)
        try:
            yield from client._ensure_qps(desc)
        except RdmaError:
            # a hosting server is unreachable but the master has not
            # noticed yet; keep the old layout and let the next attempt
            # pick up the promoted descriptor
            return self.desc
        self.desc = desc
        return desc


class _ResolvingMapping(Mapping):
    """Ablation (E9): resolve the descriptor at the master on every IO
    instead of caching it in the mapping."""

    def _submit(self, fut: OpFuture, batch):
        span = self._open_span(fut)
        if batch is None and not fut.is_atomic:
            yield from self.client.nic.host.cpu.run(ISSUE_OVERHEAD_S)
        desc = yield from self.client._master_call("lookup", self.name)
        self._dispatch(fut, desc, batch, span)


class _TwoSidedMapping(Mapping):
    """Ablation (E2, E4, E9): reads and writes go through the server CPU
    over two-sided messaging; atomics stay one-sided."""

    def _connect(self):
        """Dial the memory-service channel to every host at map time,
        all hosts at once; ``_two_sided`` dials only after a channel
        died or for a host a remap added."""
        yield from self.client.datapath.connect(self, fetch=False)

    def _dispatch(self, fut: OpFuture, desc: RegionDesc, batch, span):
        if fut.is_atomic or not desc.available:
            return super()._dispatch(fut, desc, batch, span)
        self._inflight.add(fut)
        self.client.sim.process(self._two_sided(fut, desc),
                                name="two-sided-io")
        if span is not None:
            span.finish()

    def _two_sided(self, fut: OpFuture, desc: RegionDesc):
        """Drive one read or write future through the server CPU (a
        process)."""
        client = self.client
        local_mr = fut.local_mr
        chunk_limit = max(1024, MSG_SIZE // 2)
        cursor = fut.local_addr
        try:
            for stripe, stripe_off, take in desc.locate(fut.offset,
                                                        fut.length):
                rpc = yield from client._mem_channel(stripe.host_id)
                pos = 0
                while pos < take:
                    piece = min(chunk_limit, take - pos)
                    remote = stripe.addr + stripe_off + pos
                    local = local_mr.offset_of(cursor + pos)
                    if fut.opcode is Opcode.RDMA_READ:
                        data = yield from rpc.call("ts_read", remote, piece)
                        local_mr.buffer.write(local, data)
                    else:
                        payload = local_mr.buffer.read(local, piece)
                        yield from rpc.call("ts_write", remote, payload)
                    pos += piece
                cursor += take
        except Exception as exc:
            fut._fail(exc)
            return
        client._io.settle(fut, fut.length)


class _ResolvingTwoSidedMapping(_ResolvingMapping, _TwoSidedMapping):
    """Both ablations at once."""


def mapping_class(config) -> type:
    """The :class:`Mapping` class *config* asks for: the one-sided data
    path, or an ablation of it chosen once, at map time."""
    return {(False, False): Mapping,
            (True, False): _ResolvingMapping,
            (False, True): _TwoSidedMapping,
            (True, True): _ResolvingTwoSidedMapping,
            }[config.resolve_per_io, config.two_sided_data_path]
