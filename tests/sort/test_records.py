"""Record generation and key-handling tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sort.rsort import key_prefix_u64, sort_order
from repro.workloads.kv import (
    RECORD_BYTES,
    generate_records,
    is_sorted,
    keys_of,
)


def test_record_shape_and_determinism():
    a = generate_records(100, seed=3)
    b = generate_records(100, seed=3)
    assert a.shape == (100, RECORD_BYTES)
    assert (a == b).all()
    assert not (a == generate_records(100, seed=4)).all()


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        generate_records(-1)


def test_is_sorted_detects_order():
    records = generate_records(500, seed=1)
    assert not is_sorted(records)  # random data: virtually never sorted
    ordered = records[sort_order(records)]
    assert is_sorted(ordered)


def test_is_sorted_trivial_cases():
    assert is_sorted(generate_records(0))
    assert is_sorted(generate_records(1))


def test_sort_order_is_full_key_lexicographic():
    records = generate_records(300, seed=7)
    ordered = records[sort_order(records)]
    keys = [bytes(k) for k in keys_of(ordered)]
    assert keys == sorted(keys)


def test_key_prefix_preserves_order():
    records = generate_records(1000, seed=5)
    prefixes = key_prefix_u64(records)
    by_prefix = np.argsort(prefixes, kind="stable")
    keys = keys_of(records)
    first8 = [bytes(keys[i][:8]) for i in by_prefix]
    assert first8 == sorted(first8)


@settings(max_examples=50, deadline=None)
@given(count=st.integers(min_value=0, max_value=200),
       seed=st.integers(min_value=0, max_value=1 << 16))
def test_sort_order_is_a_permutation(count, seed):
    records = generate_records(count, seed=seed)
    order = sort_order(records)
    assert sorted(order.tolist()) == list(range(count))
    assert is_sorted(records[order])
