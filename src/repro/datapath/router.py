"""Client side of the server-op and remote-fetch data paths.

The :class:`DataPathRouter` is a transport that knows no data
structure: a structure (the hash table's probe runs, the counter's
burst) builds its composite op's requests (:meth:`~DataPathRouter.request`),
ships each to the memory server owning its slots as a ``dp_exec`` RPC
(:meth:`~DataPathRouter.exec`), and hands the attempt to
:meth:`~DataPathRouter.drive`, which classifies the outcome: busy
slots back off and re-drive, stale epochs refresh the descriptor and
retry, dead channels redial — all bounded by the same
``DATA_RETRY_LIMIT`` the one-sided path honours.

**Connection set-up.**  A handle that may run server-side connects
at open (:meth:`DataPathRouter.connect`): every host's channel, and
fetch buffer if remote fetch is a candidate, all hosts at once.

**Remote fetch (RFP).**  Per server host, the router allocates a
small fetch region *placed on that server*; a remote-fetch op asks
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
    """The server-op / remote-fetch transport of one client."""

    def __init__(self, client):
        self.client = client
        #: server host -> its fetch buffer (``connect`` or first use)
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

    # -- transport -----------------------------------------------------------

    def request(self, op: str, mapping, **fields) -> dict:
        """The ``dp_exec`` request for *op* on *mapping*'s region: the
        envelope (region, shard, the shard epoch this client observed,
        its RSan actor, no deposit) followed by the op's *fields*."""
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

    def exec(self, host_id: int, request: dict, fetch: bool):
        """One composite op against one host (generator), with the
        optional deposit round trip folded in: with *fetch* the reply
        comes back through the host's fetch buffer when it is usable."""
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

    def drive(self, mapping, attempt, what: str):
        """Run ``attempt()`` (a generator returning a reply) to a
        settled reply (generator): a stale epoch refreshes the
        descriptor and re-drives, a ``BUSY`` reply (a locked slot)
        backs off and re-drives, both within the retry budget."""
        self._busy_backoff.reset()
        for _attempt in range(DATA_RETRY_LIMIT + _BUSY_BUDGET):
            try:
                reply = yield from attempt()
            except StaleEpochError:
                yield from self._refresh(mapping)
                continue
            if reply[0] != ops.BUSY:
                return reply
            self._m_busy_retries.inc()
            yield from self._busy_backoff.pause()
        raise RetryBudgetExceededError(
            f"{what} kept racing writers or stale epochs")

    def _refresh(self, mapping):
        """Stale-epoch recovery (generator): learn the shard's current
        epoch, refetch the descriptor, and retarget the mapping."""
        meta = self.client._meta
        yield from meta.resync(mapping.shard)
        meta.evict(mapping.name)
        mapping.desc = yield from self.client.lookup(mapping.name)

    def locate(self, desc, slot_off: int, slot_size: int):
        """``(host_id, arena_addr)`` of one slot (never straddles)."""
        for stripe, within, _take in desc.locate(slot_off, slot_size):
            return stripe.host_id, stripe.addr + within
        raise RStoreError(f"offset {slot_off} outside region {desc.name!r}")

    # -- connection set-up ---------------------------------------------------

    def connect(self, mapping, fetch: bool):
        """Connect every host of *mapping* at once (generator): one
        process per host dials its memory-service channel and, with
        *fetch*, opens its fetch buffer.  Both are single-flight and
        cached, so what is already connected costs nothing; a failed
        dial raises once every host has settled.  The lazy dial in
        :meth:`_call` and :meth:`_fetch_acquire` is then reached only
        by a redial or by a host a remap adds."""
        client = self.client

        def connect_host(host_id):
            yield from client._mem_channel(host_id)
            if fetch:
                yield from self._fetch_open(host_id)

        yield from client.sim.gather(
            connect_host(host_id) for host_id in mapping.desc.hosts)

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
        host_id, addr = self.locate(mapping.desc, 0, size)
        client.setup_events += 1
        buf = self._fetch_bufs[server_host] = _FetchBuffer(
            mapping, addr, size, usable=(host_id == server_host))
        return buf

    def _fetch_open(self, server_host: int):
        """The host's fetch buffer, opened once (generator): concurrent
        openers must share one buffer and its one lock, since two
        buffers over the region overwrite each other's deposits."""
        buf = self._fetch_bufs.get(server_host)
        if buf is None:
            buf = yield from self.client.sim.single_flight(
                self._fetch_opening, server_host,
                lambda: self._open_fetch_buffer(server_host))
        return buf

    def _fetch_acquire(self, server_host: int):
        """Exclusive use of the host's fetch buffer (generator); returns
        ``None`` when deposits cannot land server-local."""
        buf = yield from self._fetch_open(server_host)
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
