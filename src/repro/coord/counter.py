"""A distributed counter on one remote fetch-and-add word.

Region layout (8 bytes)::

    [ value 8B ]  -- wraps at 2^64 like the NIC's FAA unit

``add`` is one FAA on the wire; ``read`` is one 8-byte one-sided read.
Every operation refreshes a client-local cache (:attr:`cached`), and
``read(max_age_s=...)`` serves from that cache when it is fresh enough
— the pattern BSP engines use to poll convergence totals without
hammering the hosting NIC.
"""

from __future__ import annotations

from repro.coord.base import read_word, region_name
from repro.datapath.policy import ModeChooser, PathPolicy

__all__ = ["AtomicCounter"]


class AtomicCounter:
    """A shared 64-bit counter driven by one-sided FAA."""

    REGION_SIZE = 8

    def __init__(self, client, name: str, mapping, offset: int = 0,
                 path_policy=None):
        self.client = client
        self.name = name
        self.mapping = mapping
        self.offset = offset
        #: last value observed by this handle (post-op for ``add``)
        self.cached = 0
        self._cached_at = float("-inf")
        #: how ``add_burst`` runs; a burst is a handful of words either
        #: way, so no mode is ever too small for it
        self._selector = ModeChooser(client, path_policy)

    # -- setup (control path) ------------------------------------------------

    @classmethod
    def create(cls, client, name: str, initial: int = 0,
               preferred_host=None, path_policy=None):
        """Allocate and map a fresh counter region (generator)."""
        region = region_name(name)
        yield from client.alloc(region, cls.REGION_SIZE, replication=1,
                                preferred_host=preferred_host)
        mapping = yield from client.map(region)
        counter = cls(client, name, mapping, path_policy=path_policy)
        if initial:
            yield from counter.mapping.write(
                0, initial.to_bytes(8, "little")
            )
            counter._observe(initial)
        return counter

    @classmethod
    def open(cls, client, name: str, path_policy=None):
        """Map an existing counter from another client (generator)."""
        mapping = yield from client.map(region_name(name))
        return cls(client, name, mapping, path_policy=path_policy)

    # -- steady state (data path) --------------------------------------------

    def add(self, delta: int, idempotent: bool = False):
        """Fetch-and-add *delta* (generator); returns the new value.

        One FAA on the wire.  A completion failure raises immediately
        unless ``idempotent=True`` — see ``Mapping.faa`` for the
        exactly-once semantics this preserves.
        """
        client = self.client
        with client.rsan.exempt(client._rsan_actor):
            old = yield from self.mapping.faa(self.offset, delta,
                                              idempotent=idempotent)
        return self._observe((old + delta) % (1 << 64))

    def increment(self, idempotent: bool = False):
        """Add one (generator); returns the new value."""
        value = yield from self.add(1, idempotent=idempotent)
        return value

    def add_burst(self, deltas, idempotent: bool = False):
        """Apply several deltas (generator); post-add values in order.

        The FAA-heavy burst shape from the crossover study: under a
        server-side (or adaptive) path policy the whole burst ships to
        the hosting server as one composite op — one round trip instead
        of ``len(deltas)`` FAAs (``policy.ALLOWED_MODES``: never a
        remote fetch).
        """
        deltas = list(deltas)
        if not deltas:
            return []
        mode, token = self._selector.pick("burst")
        if mode == PathPolicy.ONE_SIDED:
            values = []
            for delta in deltas:
                value = yield from self.add(delta, idempotent=idempotent)
                values.append(value)
        else:
            values = yield from self.client.datapath.counter_burst(
                self, deltas
            )
            self._observe(values[-1])
        self._selector.done("burst", mode, token)
        return values

    def read(self, max_age_s: float = 0.0):
        """Current value (generator).

        With ``max_age_s > 0`` a cache entry younger than that is
        returned without touching the wire; otherwise one 8-byte
        one-sided read refreshes it.
        """
        sim = self.client.sim
        if max_age_s > 0 and sim.now - self._cached_at <= max_age_s:
            return self.cached
        # counter polling is benign by construction (monotonic word,
        # torn reads impossible at 8 bytes): exempt it like the other
        # coordination internals
        with self.client.rsan.exempt(self.client._rsan_actor):
            value = yield from read_word(self.mapping, self.offset)
        return self._observe(value)

    # -- internals -------------------------------------------------------------

    def _observe(self, value: int) -> int:
        self.cached = value
        self._cached_at = self.client.sim.now
        return value
