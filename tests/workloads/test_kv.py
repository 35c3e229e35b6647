"""Record-generator edge cases (the bulk is covered in tests/sort)."""

import numpy as np

from repro.workloads.kv import (
    KEY_BYTES,
    RECORD_BYTES,
    VALUE_BYTES,
    generate_records,
    is_sorted,
    keys_of,
)


def test_terasort_record_layout():
    assert KEY_BYTES == 10
    assert VALUE_BYTES == 90
    assert RECORD_BYTES == 100


def test_record_bytes_roundtrip():
    records = generate_records(50, seed=1)
    blob = records.tobytes()
    assert len(blob) == 50 * RECORD_BYTES
    back = np.frombuffer(blob, dtype=np.uint8).reshape(-1, RECORD_BYTES)
    assert (back == records).all()


def test_keys_of_shape():
    records = generate_records(10, seed=2)
    assert keys_of(records).shape == (10, KEY_BYTES)


def test_is_sorted_on_equal_keys():
    records = generate_records(5, seed=3)
    same = np.tile(records[0], (5, 1))
    assert is_sorted(same)


def test_is_sorted_detects_single_inversion():
    records = generate_records(100, seed=4)
    from repro.sort.rsort import sort_order

    ordered = records[sort_order(records)]
    swapped = ordered.copy()
    swapped[[10, 80]] = swapped[[80, 10]]
    assert is_sorted(ordered)
    assert not is_sorted(swapped)


def test_seeds_partition_the_keyspace_statistically():
    a = generate_records(1000, seed=10)
    b = generate_records(1000, seed=11)
    # different streams: identical rows should be essentially impossible
    assert not (a == b).all()
