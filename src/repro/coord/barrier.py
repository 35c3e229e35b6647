"""A sense-reversing barrier on one FAA word and one flag word.

Region layout (16 bytes)::

    [ count 8B ][ sense 8B ]

Arrival is one FAA on ``count``.  The last arriver resets ``count`` to
zero and *then* flips ``sense`` to the round's target value; everyone
else spins on one-sided 8-byte reads of ``sense`` with a jittered poll
interval.  Reset-before-flip is what makes the word reusable: nobody
can FAA into the next round until the flip releases them, so the reset
never races an arrival.

Each participant handle keeps a local sense bit that alternates
``1, 0, 1, ...`` per round — the classic sense-reversal trick that
lets one 16-byte region serve an unbounded number of rounds with no
generation counter and no master RPC ever.
"""

from __future__ import annotations

from repro.coord.base import Backoff, CoordError, read_word, region_name, write_word

__all__ = ["SenseBarrier"]

_COUNT = 0
_SENSE = 8
#: the longest pause between two polls of the sense word (the backoff
#: starts at its 2 µs base and doubles up to this)
_POLL_MAX_S = 16e-6


class SenseBarrier:
    """An N-party reusable barrier over one-sided atomics."""

    REGION_SIZE = 16

    def __init__(self, client, name: str, mapping, parties: int):
        if parties < 1:
            raise CoordError("a barrier needs at least one party")
        self.client = client
        self.name = name
        self.mapping = mapping
        self.parties = parties
        #: the sense value that releases this handle's next wait
        self.local_sense = 1
        #: completed rounds, from this handle's perspective
        self.generation = 0
        self._poll = Backoff.for_client(client, f"barrier-{name}",
                                        max_s=_POLL_MAX_S)
        # -- metrics
        self._m_spins = client.obs.metrics.counter(
            "coord.barrier.spins", name=name,
            host=client.nic.host.host_id)

    # -- setup (control path) ------------------------------------------------

    @classmethod
    def create(cls, client, name: str, parties: int):
        """Allocate and map a fresh barrier region (generator)."""
        region = region_name(name)
        yield from client.alloc(region, cls.REGION_SIZE, replication=1)
        mapping = yield from client.map(region)
        return cls(client, name, mapping, parties)

    @classmethod
    def open(cls, client, name: str, parties: int):
        """Map an existing barrier from another client (generator).

        Open handles before the first round completes: a handle's
        local sense must start in phase with the region's.
        """
        mapping = yield from client.map(region_name(name))
        return cls(client, name, mapping, parties)

    # -- steady state (data path) --------------------------------------------

    def wait(self):
        """Block until all ``parties`` handles have arrived (generator)."""
        target = self.local_sense
        rsan = self.client.rsan
        actor = self.client._rsan_actor
        # publish this party's pre-barrier work under the round's epoch
        # key before arriving; every departing party joins the merged
        # clock, so all pre-barrier accesses happen-before all
        # post-barrier ones
        epoch = ("barrier", self.name, self.generation)
        rsan.sync_release(actor, epoch)
        with rsan.exempt(actor):
            arrived = yield from self.mapping.faa(_COUNT, 1)
            if arrived >= self.parties:
                raise CoordError(
                    f"barrier {self.name!r} saw {arrived + 1} arrivals for "
                    f"{self.parties} parties: too many handles are waiting"
                )
            if arrived == self.parties - 1:
                # last arriver: reset the count, then flip the sense (in
                # this order — the flip is the release)
                yield from write_word(self.mapping, _COUNT, 0)
                yield from write_word(self.mapping, _SENSE, target)
            else:
                self._poll.reset()
                while True:
                    sense = yield from read_word(self.mapping, _SENSE)
                    if sense == target:
                        break
                    self._m_spins.inc()
                    yield from self._poll.pause()
        rsan.sync_acquire(actor, epoch)
        self.generation += 1
        self.local_sense = 1 - self.local_sense
