"""An MPSC doorbell queue: a message ring over one mapped region.

Region layout::

    [ tail 8B ][ doorbell 8B ][ head 8B ][ slot 0 ][ slot 1 ] ...
    slot: [ seq 8B ][ len 8B ][ payload (slot_payload bytes, padded) ]

Producer protocol (any number of producers, all one-sided):

1. **reserve** — FAA ``tail`` by 1; the old value is this message's
   global sequence number and ``seq % capacity`` its slot.
2. **flow control** — if the ring might be full (``seq - head >=
   capacity``), refresh the cached ``head`` with an 8-byte read and
   back off until the consumer frees the slot.
3. **write** — one RDMA write lands ``[len][payload]`` in the slot.
4. **publish** — write the slot's ``seq`` word to ``seq + 1``
   (version-word publish: slot sequence values never repeat, so a
   stale slot can never be mistaken for a fresh one).
5. **doorbell** — FAA ``doorbell`` by 1 so the consumer polls one hot
   8-byte word instead of scanning slots.  Steps 3–5 ride one flush
   and one round trip, the publish ordered behind the write.

Consumer protocol (exactly one consumer):

* Poll ``doorbell`` (8-byte read + jittered pause) until it exceeds
  the consumed count, then wait for the *next in-order* slot's ``seq``
  word to publish (producers can finish out of order), read the slot,
  and advance ``head`` with a plain write to free it for wrapping
  producers.

This upgrades watermark-polling loops (the old
``examples/producer_consumer_notify.py`` pattern) into a real queue:
framed variable-length messages, multiple producers, bounded memory,
and an idle consumer that touches only one cache line per poll.
"""

from __future__ import annotations

from repro.coord.base import Backoff, CoordError, read_word, region_name, write_word
from repro.coord.seqlock import publishes

__all__ = ["DoorbellQueue"]

_TAIL = 0
_BELL = 8
_HEAD = 16
_HEADER = 24
_WORD = 8


def _pad8(n: int) -> int:
    return -(-n // _WORD) * _WORD


class DoorbellQueue:
    """A bounded multi-producer, single-consumer ring in the store."""

    def __init__(self, client, name: str, mapping, capacity: int,
                 slot_payload: int, poll_interval_s: float = 2e-6):
        if capacity < 1:
            raise CoordError("need at least one slot")
        if slot_payload < 1:
            raise CoordError("need room for at least one payload byte")
        self.client = client
        self.name = name
        self.mapping = mapping
        self.capacity = capacity
        self.slot_payload = slot_payload
        self.slot_size = 2 * _WORD + _pad8(slot_payload)
        #: messages this handle consumed (consumer side only)
        self.consumed = 0
        self._head_cache = 0
        self._bell_cache = 0
        self._poll = Backoff.for_client(
            client, f"doorbell-{name}",
            base_s=poll_interval_s, max_s=16 * poll_interval_s,
        )
        # -- metrics
        _labels = dict(name=name, host=client.nic.host.host_id)
        _m = client.obs.metrics
        self._m_sent = _m.counter("coord.doorbell.sent", **_labels)
        self._m_received = _m.counter("coord.doorbell.received", **_labels)
        self._m_polls = _m.counter("coord.doorbell.polls", **_labels)
        self._m_stalls = _m.counter("coord.doorbell.stalls", **_labels)

    @property
    def sent(self) -> int:
        """Messages this handle enqueued."""
        return int(self._m_sent.value)

    @property
    def received(self) -> int:
        """Messages this handle dequeued."""
        return int(self._m_received.value)

    @property
    def polls(self) -> int:
        """Consumer poll rounds that found nothing ready."""
        return int(self._m_polls.value)

    @property
    def stalls(self) -> int:
        """Producer waits for the consumer to free a slot."""
        return int(self._m_stalls.value)

    @classmethod
    def _region_size(cls, capacity: int, slot_payload: int) -> int:
        return _HEADER + capacity * (2 * _WORD + _pad8(slot_payload))

    # -- setup (control path) ------------------------------------------------

    @classmethod
    def create(cls, client, name: str, capacity: int, slot_payload: int,
               preferred_host=None):
        """Allocate and map a fresh queue region (generator)."""
        region = region_name(name)
        yield from client.alloc(
            region, cls._region_size(capacity, slot_payload),
            replication=1, preferred_host=preferred_host,
        )
        mapping = yield from client.map(region)
        return cls(client, name, mapping, capacity, slot_payload)

    @classmethod
    def open(cls, client, name: str, capacity: int, slot_payload: int):
        """Map an existing queue from another client (generator)."""
        mapping = yield from client.map(region_name(name))
        return cls(client, name, mapping, capacity, slot_payload)

    # -- producers (data path) -------------------------------------------------

    def send(self, payload: bytes):
        """Enqueue one message (generator); returns its sequence number."""
        if len(payload) > self.slot_payload:
            raise CoordError(
                f"payload of {len(payload)} bytes exceeds slot capacity "
                f"{self.slot_payload}"
            )
        rsan = self.client.rsan
        actor = self.client._rsan_actor
        with rsan.exempt(actor):
            seq = yield from self.mapping.faa(_TAIL, 1)
        # a producer wrapping onto a freed slot joins the consumer's
        # cumulative head release (the slot's prior contents are dead)
        rsan.sync_acquire(actor, ("dbq", self.name, "head"))
        # publish this message's clock before its body leaves: the
        # consumer joins it after reading the slot
        rsan.sync_release(actor, ("dbq", self.name, seq))
        self._poll.reset()
        with rsan.exempt(actor):
            while seq - self._head_cache >= self.capacity:
                self._head_cache = yield from read_word(self.mapping, _HEAD)
                if seq - self._head_cache < self.capacity:
                    break
                self._m_stalls.inc()
                yield from self._poll.pause()
            slot_off = self._slot_off(seq)
            # body, seq word and doorbell ride one flush: the word is an
            # ordered write behind the body (``seqlock.publishes``), so
            # no slot is ever exposed with a fresh seq word over a stale
            # body, and a redone publish is guarded by the value the
            # word keeps until then — the last lap's.  Seeing the bell
            # before the seq word is safe — the consumer re-polls the
            # slot; the bell FAA stays non-idempotent (a double bump
            # would over-count).
            batch = self.client.batch()
            bell = batch.faa(self.mapping, _BELL, 1)
            yield from publishes(
                [(self.mapping, slot_off, max(0, seq + 1 - self.capacity),
                  seq + 1, len(payload).to_bytes(8, "little") + payload)],
                batch)
            yield from bell.wait()
        self._m_sent.inc()
        return seq

    # -- the consumer (data path) ----------------------------------------------

    def recv(self):
        """Dequeue the next message in sequence order (generator)."""
        rsan = self.client.rsan
        actor = self.client._rsan_actor
        slot_off = self._slot_off(self.consumed)
        self._poll.reset()
        with rsan.exempt(actor):
            while True:
                if self._bell_cache > self.consumed:
                    # something new is published somewhere; our slot?
                    seq = yield from read_word(self.mapping, slot_off)
                    if seq == self.consumed + 1:
                        break
                else:
                    self._bell_cache = yield from read_word(self.mapping,
                                                            _BELL)
                    if self._bell_cache > self.consumed:
                        continue
                self._m_polls.inc()
                yield from self._poll.pause()
            blob = yield from self.mapping.read(
                slot_off + _WORD, _WORD + self.slot_payload
            )
        # the slot was published: join the producer of this message
        rsan.sync_acquire(actor, ("dbq", self.name, self.consumed))
        length = int.from_bytes(blob[:_WORD], "little")
        if length > self.slot_payload:
            raise CoordError(
                f"corrupt slot {self.consumed % self.capacity}: length "
                f"{length} exceeds capacity {self.slot_payload}"
            )
        payload = blob[_WORD : _WORD + length]
        self.consumed += 1
        # freeing the slot releases everything consumed so far to any
        # producer that wraps onto it
        rsan.sync_release(actor, ("dbq", self.name, "head"))
        with rsan.exempt(actor):
            # free the slot for wrapping producers
            yield from write_word(self.mapping, _HEAD, self.consumed)
        self._m_received.inc()
        return payload

    def pending(self):
        """Published-message estimate from one doorbell read (generator)."""
        client = self.client
        with client.rsan.exempt(client._rsan_actor):
            self._bell_cache = yield from read_word(self.mapping, _BELL)
        return max(0, self._bell_cache - self.consumed)

    # -- internals -------------------------------------------------------------

    def _slot_off(self, seq: int) -> int:
        return _HEADER + (seq % self.capacity) * self.slot_size
