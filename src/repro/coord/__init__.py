"""One-sided coordination: locks, barriers and counters on atomics.

RStore's separation philosophy says the data path must involve no
server CPU and no master lookups.  This package extends that to
*coordination*: every primitive allocates a small named region once at
setup (the only control-path work it ever does) and then synchronizes
purely with one-sided ``faa``/``cas``/``read``/``write`` — the NIC is
the lock manager, the barrier tree, and the mailbox.

=================  =====================================================
primitive          protocol
=================  =====================================================
`AtomicCounter`    FAA word with client-side cached reads
`RemoteLock`       CAS spinlock, capped exponential backoff + jitter
`SeqLock`          a record view: validated reads, token-CAS'd publishes
`SenseBarrier`     sense-reversing FAA barrier for N parties
=================  =====================================================

All coordination regions are unreplicated (``replication=1``): NIC
atomics cannot be mirrored, so coordination state dies with its server
and is re-created, never repaired.  An atomic that reached the NIC is
never replayed (``Mapping.faa``/``cas``) — a completion error surfaces
instead of risking a double-applied FAA (see DESIGN.md, "Coordination
subsystem").
"""

from repro.coord.barrier import SenseBarrier
from repro.coord.base import Backoff, CoordError
from repro.coord.counter import AtomicCounter
from repro.coord.lock import RemoteLock
from repro.coord.seqlock import SeqLock

__all__ = [
    "AtomicCounter",
    "Backoff",
    "CoordError",
    "RemoteLock",
    "SenseBarrier",
    "SeqLock",
]
