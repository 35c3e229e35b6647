"""A key-value layer built purely on RStore's memory-like API.

The abstract positions RStore's API as general enough to build systems
on ("a distributed graph processing framework and a Key-Value sorter");
this package adds the era's third canonical workload — a distributed
hash table in the style of Pilaf/FaRM, built with **no server code at
all**:

* the table is one RStore region, slots aligned so no slot straddles a
  stripe;
* ``get`` is optimistic: one one-sided read, validated by re-reading
  the slot's version word on the same doorbell — one round trip;
* ``put``/``delete`` lock a slot with a remote compare-and-swap on the
  version word (odd = locked), write, then unlock with a version bump.

Multiple clients on different machines operate on the same table
concurrently; the memory servers never execute a single instruction on
its behalf.
"""

from repro.kv.hashkv import KvError, KvFullError, RKVStore

__all__ = ["KvError", "KvFullError", "RKVStore"]
