"""A distributed counter on one remote fetch-and-add word.

Region layout (8 bytes)::

    [ value 8B ]  -- wraps at 2^64 like the NIC's FAA unit

``add`` is one FAA on the wire; ``read`` is one 8-byte one-sided read.
"""

from __future__ import annotations

from repro.coord.base import read_word, region_name
from repro.datapath.policy import ModeChooser, PathPolicy

__all__ = ["AtomicCounter"]


class AtomicCounter:
    """A shared 64-bit counter driven by one-sided FAA."""

    REGION_SIZE = 8

    def __init__(self, client, name: str, mapping, path_policy):
        self.client = client
        self.name = name
        self.mapping = mapping
        #: how ``add_burst`` runs; a burst is a handful of words either
        #: way, so no mode is ever too small for it
        self._selector = ModeChooser(client, path_policy)

    # -- setup (control path) ------------------------------------------------

    @classmethod
    def create(cls, client, name: str, path_policy=None):
        """Allocate and map a fresh counter region at 0 (generator)."""
        region = region_name(name)
        yield from client.alloc(region, cls.REGION_SIZE, replication=1)
        mapping = yield from client.map(region)
        return cls(client, name, mapping, path_policy)

    @classmethod
    def open(cls, client, name: str):
        """Map an existing counter from another client (generator)."""
        mapping = yield from client.map(region_name(name))
        return cls(client, name, mapping, None)

    # -- steady state (data path) --------------------------------------------

    def add(self, delta: int):
        """Fetch-and-add *delta* (generator); returns the new value.

        One FAA on the wire.  A completion failure after the FAA
        reached the NIC raises — see ``Mapping.faa`` for the
        exactly-once semantics this preserves.
        """
        client = self.client
        with client.rsan.exempt(client._rsan_actor):
            old = yield from self.mapping.faa(0, delta)
        return (old + delta) % (1 << 64)

    def increment(self):
        """Add one (generator); returns the new value."""
        value = yield from self.add(1)
        return value

    def add_burst(self, deltas):
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
                value = yield from self.add(delta)
                values.append(value)
        else:
            values = yield from self.client.datapath.counter_burst(
                self, deltas
            )
        self._selector.done("burst", mode, token)
        return values

    def read(self):
        """Current value (generator): one 8-byte one-sided read."""
        # counter polling is benign by construction (monotonic word,
        # torn reads impossible at 8 bytes): exempt it like the other
        # coordination internals
        with self.client.rsan.exempt(self.client._rsan_actor):
            value = yield from read_word(self.mapping, 0)
        return value
