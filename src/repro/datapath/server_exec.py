"""Server-side execution of composite data-path operations.

The ``dp_exec`` handler a :class:`~repro.core.server.MemoryServer`
registers on its RPC endpoint.  A client ships one *composite* op — a
kv probe chain, a counter burst — and the server applies it against
the arena, replacing a multi-round one-sided conversation with a
single round trip.

Correctness relies on two disciplines:

* **Atomic application.**  Simulation code between yields runs
  atomically in simulated time, so every slot snapshot is read in one
  yield-free block (never torn) and every mutation re-validates and
  writes in one yield-free block (never interleaved with a racing
  one-sided writer).  CPU time is charged *before* each such block.
* **Equivalent happens-before edges.**  A server-op emits exactly the
  sync edges its one-sided equivalent would — a validated read
  acquires the slot's published version key, a store acquires the
  old version and releases the new one — on the *client's* RSan actor
  id, so mixing modes under the sanitizer stays race-clean and
  mode-equivalent.

Epoch fencing mirrors the NIC's WR-level fence: requests are stamped
with the client's observed shard epoch and a fenced request raises
:class:`~repro.core.errors.StaleEpochError` before touching memory.

This module is *data-plane only*: repro-lint RL007 forbids server-op
handlers from importing master/RPC/shard machinery or dialing a
control endpoint — the server that registers the handler owns the
channel; the executor only ever touches the arena.
"""

from __future__ import annotations

import pickle

from repro.core.errors import RStoreError, StaleEpochError
from repro.datapath import ops
from repro.sanitize.rsan import rsan_for

__all__ = ["ServerOpExecutor"]


class _BusySlot(Exception):
    """A slot reader found a writer's odd version word."""


class ServerOpExecutor:
    """Applies composite client ops against one server's arena."""

    def __init__(self, server):
        self.server = server
        self.sim = server.sim
        self.nic = server.nic
        self.cpu = server.nic.host.cpu
        self.mr = server.arena_mr
        self.rsan = rsan_for(server.sim)
        _m = server.nic.obs.metrics
        _host = server.host_id
        self._m_applied = _m.counter("datapath.server_ops_applied",
                                     host=_host)
        self._m_deposited = _m.counter("datapath.server_bytes_deposited",
                                       host=_host)
        self._ops = {
            "kv_get": self._kv_get,
            "kv_put": self._kv_put,
            "counter_burst": self._counter_burst,
        }

    # -- entry point ---------------------------------------------------------

    def execute(self, request: dict):
        """The ``dp_exec`` RPC handler (generator)."""
        shard = request.get("shard", 0)
        epoch = request.get("epoch", 0)
        if self.nic.fenced(shard, epoch):
            raise StaleEpochError(
                f"server-op stamped epoch {epoch} is behind shard "
                f"{shard}'s fence {self.nic.fence_for(shard)}"
            )
        handler = self._ops.get(request.get("op"))
        if handler is None:
            raise RStoreError(f"unknown server op {request.get('op')!r}")
        result = yield from handler(request)
        self._m_applied.inc()
        deposit = request.get("deposit")
        # only a lookup is ever offered a deposit (policy.ALLOWED_MODES)
        # and only its hit carries a payload: a status returns inline
        # (a deposited "busy" would waste the pickup READ)
        if deposit is not None and result[0] == ops.HIT:
            result = yield from self._deposit(deposit, result)
        return result

    # -- helpers -------------------------------------------------------------

    def _snapshot(self, addr: int, length: int) -> bytes:
        """Read arena bytes with no yield — atomic in simulated time."""
        return self.mr.buffer.read(self.mr.offset_of(addr), length)

    def _deposit(self, deposit, result):
        """Write the pickled result into the client's fetch buffer.

        The RPC reply is sent only after this handler returns, so the
        deposit is durably in place before the client's one-sided
        pickup READ can possibly be issued.
        """
        addr, capacity = deposit
        blob = pickle.dumps(result)
        if len(blob) > capacity:
            raise RStoreError(
                f"result of {len(blob)} bytes exceeds the {capacity}-byte "
                f"fetch buffer"
            )
        yield from self.cpu.copy(len(blob))
        self.mr.buffer.write(self.mr.offset_of(addr), blob)
        self._m_deposited.inc(len(blob))
        return ("deposited", len(blob))

    # -- kv ops --------------------------------------------------------------

    def _reader(self, req: dict, length: int):
        """The probe walk's slot reader over the local arena.

        Each hop charges the CPU for *length* bytes, snapshots them in
        one yield-free block, refuses a slot a writer holds, and
        acquires the slot's version key on the client's actor — the
        edge the one-sided prober's validated read would have taken.
        *length* is what separates the two walks: a lookup touches only
        the slot *header* (version + key) per hop and pays for the
        value once, on the hit — the one-sided prober must READ the
        full slot every hop because it cannot know a slot misses until
        the bytes arrive — while a store reads whole slots.
        """
        def read(slot):
            slot_off, addr = slot
            yield from self.cpu.copy(length)
            # consistent: no yield
            version, body = ops.split(self._snapshot(addr, length))
            if version % 2 == 1:
                raise _BusySlot()
            self.rsan.sync_acquire(
                req["actor"], ops.sync_key(req["region"], slot_off, version))
            return (version, *ops.parse_key(body))
        return read

    def _kv_get(self, req: dict):
        """One probe run of a lookup: ``("hit", value)``, ``("busy",)``
        or the walk's bare outcome."""
        key_size = req["key_size"]
        head = ops.WORD + ops.WORD + ops.pad(key_size)
        size = ops.slot_size(key_size, req["value_size"])
        try:
            outcome, slot, snapshot, _reusable = yield from ops.walk(
                req["key"], req["slots"], self._reader(req, head))
        except _BusySlot:
            return ("busy",)
        if outcome != ops.HIT:
            return (outcome,)
        # now pay for the value and re-validate — the CPU charge
        # yields, so the slot may have changed under us
        yield from self.cpu.copy(size - head)
        # consistent: no yield
        version, body = ops.split(self._snapshot(slot[1], size))
        if version != snapshot[0]:
            return ("busy",)  # racing writer: caller re-drives
        _len, _key, value = ops.parse_body(body, key_size)
        return (ops.HIT, value)

    def _kv_put(self, req: dict):
        """One probe run of a store.

        ``("stored", version, slot_off)`` when the run settles it — the
        key is here, or the chain ends here and the first reusable slot
        is claimed — naming the version published and the slot's region
        offset, which the client keeps as the key's write hint.
        ``("reusable",)`` when the run is exhausted but crossed a
        tombstone: the key may still live further down the chain, on
        another host, so the store cannot be decided here.  Otherwise
        ``("busy",)`` or ``("continue",)``.
        """
        key = req["key"]
        key_size, value_size = req["key_size"], req["value_size"]
        size = ops.slot_size(key_size, value_size)
        try:
            outcome, slot, _snapshot, reusable = yield from ops.walk(
                key, req["slots"], self._reader(req, size))
        except _BusySlot:
            return ("busy",)
        if outcome == ops.CONTINUE:
            return ("reusable",) if reusable else (ops.CONTINUE,)
        if outcome == ops.FREE:
            slot = reusable[0][0]
        slot_off, addr = slot
        # claim this slot.  Charge the publish copy first (it yields),
        # then re-validate + write in one atomic block.
        yield from self.cpu.copy(size)
        cur_version, body = ops.split(self._snapshot(addr, size))
        cur_len, cur_key = ops.parse_key(body)
        if (cur_version % 2 == 1
                or ops.classify(cur_len, cur_key, key) == ops.OTHER):
            return ("busy",)  # locked, or a racer claimed it for another key
        new_version = cur_version + 2
        actor, region = req["actor"], req["region"]
        # lock + publish edges at the apply instant — identical to the
        # one-sided try_lock/publish pair, with no observable
        # odd-version window because nothing yields in between
        self.rsan.sync_acquire(
            actor, ops.sync_key(region, slot_off, cur_version))
        self.rsan.sync_release(
            actor, ops.sync_key(region, slot_off, new_version))
        self.mr.buffer.write(
            self.mr.offset_of(addr),
            new_version.to_bytes(ops.WORD, "little")
            + ops.encode_body(key, req["value"], key_size, value_size),
        )
        return ("stored", new_version, slot_off)

    # -- counters ------------------------------------------------------------

    def _counter_burst(self, req: dict):
        """Apply a burst of FAA deltas to one counter word.

        One read-modify-write, atomic in simulated time — equivalent
        to the deltas landing back-to-back on the remote FAA unit.
        Counter words are RSan-exempt on the one-sided path, so no
        sync edges are emitted here either.
        """
        deltas = req["deltas"]
        yield from self.cpu.copy(ops.WORD * max(1, len(deltas)))
        offset = self.mr.offset_of(req["addr"])
        word = int.from_bytes(self.mr.buffer.read(offset, ops.WORD),
                              "little")
        values = []
        for delta in deltas:
            word = (word + delta) % (1 << 64)
            values.append(word)
        self.mr.buffer.write(offset, word.to_bytes(ops.WORD, "little"))
        return ("counted", values)
