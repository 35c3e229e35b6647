"""Fixture: RL012 — hash-ordered iteration around simulated work.

Bad: a ``for`` directly over a set whose body yields to the simulator
or posts an op — the shape ``baselines/twopl.py`` had before PR 16,
which made E14's numbers drift with ``PYTHONHASHSEED``.  Good: the
``dict.fromkeys`` dedupe that replaced it, a sorted set, and a set loop
that only computes.
"""


def resolve_in_hash_order(self, store, keys):
    slots = {}
    for key in set(keys):  # -> RL012
        index = yield from self._find_slot(store, key)
        slots[key] = index
    return slots


def post_in_hash_order(mapping, offsets):
    futures = []
    for offset in {off for off in offsets}:  # -> RL012
        futures.append(mapping.read_async(offset, 8))
    return futures


def ring_in_hash_order(qp, a, b):
    for wr in frozenset((a, b)):  # -> RL012
        qp.post_send(wr)


def literal_with_a_bare_yield(sim, first, second):
    for event in {first, second}:  # -> RL012
        yield event


# must-pass: the fix — dedupe in declaration order
def resolve_in_declaration_order(self, store, keys):
    slots = {}
    for key in dict.fromkeys(keys):
        index = yield from self._find_slot(store, key)
        slots[key] = index
    return slots


# must-pass: a total order over the set
def resolve_sorted(self, store, keys):
    for key in sorted(set(keys)):
        yield from self._find_slot(store, key)


# must-pass: hash order cannot reach the simulation
def pure_fold(keys):
    total = 0
    for key in set(keys):
        total += len(key)
    return total


# must-pass: the yield belongs to a nested function, not to the loop
def builds_generators(keys):
    makers = []
    for key in set(keys):
        def later(key=key):
            yield key
        makers.append(later)
    return sorted(makers, key=repr)
