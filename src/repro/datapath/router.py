"""Client side of the server-op and remote-fetch data paths.

The :class:`DataPathRouter` plans a composite op (a kv probe chain, a
counter burst) against the current region descriptor, ships it to the
owning memory server(s) as ``dp_exec`` RPCs, and classifies the
outcome: busy slots back off and re-drive, stale epochs refresh the
descriptor and retry, dead channels redial — all bounded by the same
``DATA_RETRY_LIMIT`` the one-sided path honours.

**Probe-run segmentation.**  A probe chain (``ops.chain``) may span
stripe boundaries; consecutive same-host slots group into *runs* and
each run is one ``dp_exec`` — the server walks it with the same
``ops.walk`` every prober uses and answers with the walk's outcome.
``("continue",)`` hands the chain to the next run, exactly as the
one-sided prober walks slot by slot.  A store that crosses a
tombstone in a run the chain outlives (``("reusable",)``) cannot be
decided on one host — overwrite-if-present needs the rest of the
chain, first-reusable needs this run — and falls back to the
one-sided store.  A key the client holds a location hint for goes
first as a one-slot run to the hinted slot's host, which answers it
only on a hit; the runs follow on a miss.

**Remote fetch (RFP).**  Per server host, the router lazily allocates
a small fetch region *placed on that server*; a remote-fetch op asks
the server to deposit its (pickled) result there and returns a tiny
acknowledgement, and the client picks the payload up with a one-sided
READ — large results never ride the CPU-charged message channel.  A
per-host flag serializes buffer use; hosts whose placement hint could
not be honoured silently degrade to plain server-op.
"""

from __future__ import annotations

import pickle

from repro.coord.base import Backoff
from repro.core.errors import (
    RegionExistsError,
    RetryBudgetExceededError,
    RStoreError,
    StaleEpochError,
    translated,
)
from repro.core.pipeline import DATA_RETRY_LIMIT
from repro.datapath import ops
from repro.datapath.policy import FETCH_BYTES
from repro.rpc.channel import ChannelClosed
from repro.rpc.endpoint import RpcError, RpcRemoteError
from repro.simnet.resources import Resource

__all__ = ["DataPathRouter"]

#: extra re-drives allowed for benign slot contention ("busy" replies)
#: on top of the fault retry budget — contention is not a fault
_BUSY_BUDGET = 256


class _FetchBuffer:
    """One per-server deposit region owned by this client."""

    __slots__ = ("mapping", "addr", "capacity", "usable", "lock", "holder")

    def __init__(self, mapping, addr: int, capacity: int, usable: bool):
        self.mapping = mapping
        self.addr = addr
        self.capacity = capacity
        #: placement hint honoured — deposits actually land server-local
        self.usable = usable
        #: one op at a time deposits into and picks up from the buffer
        self.lock = Resource(mapping.client.sim, capacity=1)
        self.holder = None


class DataPathRouter:
    """Plans and drives server-op / remote-fetch executions."""

    def __init__(self, client):
        self.client = client
        #: server host -> lazily opened fetch buffer
        self._fetch_bufs: dict[int, _FetchBuffer] = {}
        #: server host -> the one open in flight (``single_flight``)
        self._fetch_opening: dict = {}
        self._busy_backoff = Backoff.for_client(
            client, "datapath-busy", budget=_BUSY_BUDGET)
        self._redial_backoff = Backoff.for_client(client, "datapath-redial")
        _m = client.obs.metrics
        _host = client.nic.host.host_id
        self._m_server_ops = _m.counter("datapath.server_ops", host=_host)
        self._m_remote_fetches = _m.counter("datapath.remote_fetches",
                                            host=_host)
        self._m_busy_retries = _m.counter("datapath.busy_retries",
                                          host=_host)
        self._m_bytes_fetched = _m.counter("datapath.bytes_fetched",
                                           host=_host)

    # -- metrics -------------------------------------------------------------

    # -- plumbing ------------------------------------------------------------

    def _request(self, op: str, mapping, **fields) -> dict:
        client = self.client
        req = {
            "op": op,
            "region": mapping.name,
            "shard": mapping.shard,
            "epoch": client._meta.epochs.get(mapping.shard, 0),
            "actor": client._rsan_actor,
            "deposit": None,
        }
        req.update(fields)
        return req

    def _call(self, host_id: int, request: dict):
        """One ``dp_exec`` round trip (generator), redialing dead
        channels up to the data retry budget."""
        client = self.client
        for attempt in range(DATA_RETRY_LIMIT + 1):
            rpc = yield from client._mem_channel(host_id)
            try:
                reply = yield from rpc.call("dp_exec", request)
            except RpcRemoteError as exc:
                raise translated(exc) from None
            except (RpcError, ChannelClosed):
                client._mem_channel_drop(host_id)
                if attempt >= DATA_RETRY_LIMIT:
                    raise
                yield from self._redial_backoff.pause()
                continue
            self._m_server_ops.inc()
            return reply
        raise RStoreError("unreachable")  # pragma: no cover

    def _refresh(self, mapping):
        """Stale-epoch recovery (generator): learn the shard's current
        epoch, refetch the descriptor, and retarget the mapping."""
        meta = self.client._meta
        yield from meta.resync(mapping.shard)
        meta.evict(mapping.name)
        mapping.desc = yield from self.client.lookup(mapping.name)

    def _locate_slot(self, desc, slot_off: int, slot_size: int):
        """``(host_id, arena_addr)`` of one slot (never straddles)."""
        for stripe, within, _take in desc.locate(slot_off, slot_size):
            return stripe.host_id, stripe.addr + within
        raise RStoreError(f"offset {slot_off} outside region {desc.name!r}")

    def _probe_runs(self, desc, store, base: int):
        """The probe chain as maximal same-host runs ``(host_id, [(slot
        offset, arena address), ...])``, in probe order — yielded
        lazily, so a chain settled in its first run never locates the
        slots past the next host change.  A slot never straddles a
        stripe, so each stripe the chain enters is located once and its
        slots' addresses follow by arithmetic."""
        host_id, run = None, []
        start = end = 0  # the located stripe's region offsets
        for index in ops.chain(base, store.slots):
            slot_off = index * store.slot_size
            if not start <= slot_off < end:
                stripe = desc.stripes[slot_off // desc.stripe_size]
                start = stripe.index * desc.stripe_size
                end = start + stripe.length
                slot_host, shift = stripe.host_id, stripe.addr - start
            if run and slot_host != host_id:
                yield host_id, run
                run = []
            host_id = slot_host
            run.append((slot_off, slot_off + shift))
        yield host_id, run

    # -- remote-fetch buffers ------------------------------------------------

    def _open_fetch_buffer(self, server_host: int):
        """Allocate this client's deposit region on *server_host*
        (generator); marks it unusable if placement missed the hint."""
        client = self.client
        size = FETCH_BYTES
        name = f"dpfetch.h{client.nic.host.host_id}.s{server_host}"
        try:
            yield from client.alloc(name, size, stripe_size=size,
                                    preferred_host=server_host,
                                    replication=1)
        except RegionExistsError:
            # already allocated (an earlier router on this host); map it.
            # Any other refusal (quota, capacity) is the real error.
            pass
        mapping = yield from client.map(name)
        host_id, addr = self._locate_slot(mapping.desc, 0, size)
        client.setup_events += 1
        buf = self._fetch_bufs[server_host] = _FetchBuffer(
            mapping, addr, size, usable=(host_id == server_host))
        return buf

    def _fetch_acquire(self, server_host: int):
        """Exclusive use of the host's fetch buffer (generator); returns
        ``None`` when deposits cannot land server-local."""
        buf = self._fetch_bufs.get(server_host)
        if buf is None:
            # concurrent cold ops must share one buffer and its one lock:
            # two buffers over the region overwrite each other's deposits
            buf = yield from self.client.sim.single_flight(
                self._fetch_opening, server_host,
                lambda: self._open_fetch_buffer(server_host))
        if not buf.usable:
            return None
        holder = buf.lock.try_acquire()
        if holder is None:
            holder = buf.lock.request()
            yield holder
        buf.holder = holder
        return buf

    @staticmethod
    def _fetch_release(buf) -> None:
        if buf is not None:
            buf.lock.release(buf.holder)

    def _collect(self, buf, reply):
        """Resolve a deposited reply (generator): one-sided pickup READ
        of the fetch buffer, then unpickle the real result."""
        if reply[0] != "deposited":
            return reply
        nbytes = reply[1]
        client = self.client
        # the deposit write happened before the RPC reply was sent and
        # the buffer is exclusively ours until released: benign by
        # construction, like the coordination internals
        with client.rsan.exempt(client._rsan_actor):
            blob = yield from buf.mapping.read(0, nbytes)
        self._m_remote_fetches.inc()
        self._m_bytes_fetched.inc(nbytes)
        return pickle.loads(bytes(blob))

    def _exec(self, host_id: int, request: dict, fetch: bool):
        """One composite op against one host (generator), with the
        optional deposit round trip folded in."""
        buf = None
        if fetch:
            buf = yield from self._fetch_acquire(host_id)
            if buf is not None:
                request = dict(request, deposit=(buf.addr, buf.capacity))
        try:
            reply = yield from self._call(host_id, request)
            result = yield from self._collect(buf, reply)
        finally:
            self._fetch_release(buf)
        return result

    # -- kv operations -------------------------------------------------------

    def _kv_runs(self, op: str, store, base: int, key: bytes, fetch: bool,
                 fields: dict):
        """Ship *op* to the key's hinted slot, if the client has one, as
        a one-slot run to the host holding it, then — unless that
        settled it — to the chain's runs in probe order (generator)
        until one settles it; returns that run's reply, or the last
        ``("continue",)`` when the probe window is exhausted.  The
        server answers a hinted run only on a hit (``ops.walk``'s
        *hint*), so a stale hint costs one round trip, never a wrong
        answer."""
        mapping, desc = store.mapping, store.mapping.desc

        def request(slots, **hint):
            return self._request(
                op, mapping, key=key, **fields, slots=slots, **hint,
                key_size=store.key_size, value_size=store.value_size,
            )

        index = store._hinted(key)
        if index is not None:
            slot_off = index * store.slot_size
            host_id, addr = self._locate_slot(desc, slot_off,
                                              store.slot_size)
            reply = yield from self._exec(
                host_id, request([], hint=(slot_off, addr)), fetch)
            if reply[0] != ops.CONTINUE:
                return reply
        for host_id, slots in self._probe_runs(desc, store, base):
            reply = yield from self._exec(host_id, request(slots), fetch)
            if reply[0] != ops.CONTINUE:
                break
        return reply

    def _drive(self, mapping, attempt, what: str):
        """Run ``attempt()`` (a generator returning a reply) to a
        settled reply (generator): a stale epoch refreshes the
        descriptor and re-drives, a ``busy`` reply (a locked slot)
        backs off and re-drives, both within the retry budget."""
        self._busy_backoff.reset()
        for _attempt in range(DATA_RETRY_LIMIT + _BUSY_BUDGET):
            try:
                reply = yield from attempt()
            except StaleEpochError:
                yield from self._refresh(mapping)
                continue
            if reply[0] != "busy":
                return reply
            self._m_busy_retries.inc()
            yield from self._busy_backoff.pause()
        raise RetryBudgetExceededError(
            f"{what} kept racing writers or stale epochs")

    def _kv_op(self, op: str, store, key: bytes, fetch: bool = False,
               **fields):
        """Drive one kv server-op over its probe runs (generator)."""
        base = ops.hash64(key)
        return self._drive(
            store.mapping,
            lambda: self._kv_runs(op, store, base, key, fetch, fields),
            f"{op} of {key!r}")

    def kv_get(self, store, key: bytes, fetch: bool = False):
        """Server-side probe-chain lookup (generator).  A hit leaves the
        client the key's slot and version, as a store does."""
        reply = yield from self._kv_op("kv_get", store, key, fetch)
        if reply[0] != ops.HIT:
            store._found(key, reply[0], None, None)
            return None
        _hit, value, version, slot_off = reply
        store._found(key, ops.HIT, slot_off // store.slot_size, version)
        return value

    def kv_put(self, store, key: bytes, value: bytes):
        """Server-side probe-chain store (generator); ``False`` when the
        probe window holds no reusable slot.  A store leaves the client
        the key's slot and version, so its next get or write of the key
        goes to that slot first."""
        reply = yield from self._kv_op("kv_put", store, key, value=value)
        if reply[0] == "reusable":
            yield from store._put_one_sided(key, value)
            return True
        if reply[0] != "stored":
            return False
        _stored, version, slot_off = reply
        store._hint(key, slot_off // store.slot_size, version)
        return True

    # -- counters ------------------------------------------------------------

    def counter_burst(self, counter, deltas: list):
        """A burst of FAA deltas applied server-side (generator);
        returns the post-add values in delta order."""
        mapping = counter.mapping

        def attempt():
            host_id, addr = self._locate_slot(mapping.desc, 0, ops.WORD)
            request = self._request("counter_burst", mapping, addr=addr,
                                    deltas=list(deltas))
            return self._exec(host_id, request, fetch=False)

        reply = yield from self._drive(
            mapping, attempt, f"counter burst on {mapping.name!r}")
        return reply[1]
