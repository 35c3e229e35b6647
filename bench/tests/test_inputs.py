import inputs


def _everything(seed):
    return (
        inputs.raw_small_ops(seed, 0, 500, 2 * 2 ** 20),
        inputs.bulk_ops(seed, 1, 0, 200, 64, 4, 4),
        inputs.bulk_source(seed, 1, 4096),
        inputs.kv_ops(seed, 2, 0, 500, 4000, 3, 0.99, 0.95),
        inputs.churn_ops(seed, 0, 0, 20),
        inputs.txn_ops(seed, 0, 0, 300, 200, 0.9),
    )


def test_inputs_are_a_pure_function_of_the_seed():
    assert _everything(5) == _everything(5)
    for mine, other in zip(_everything(5), _everything(6)):
        assert mine != other


def test_rounds_and_clients_draw_from_their_own_streams():
    assert inputs.kv_ops(1, 0, 0, 50, 4000, 3, 0.99, 0.5) \
        != inputs.kv_ops(1, 0, 1, 50, 4000, 3, 0.99, 0.5)
    assert inputs.txn_ops(1, 0, 0, 50, 200, 0.9) \
        != inputs.txn_ops(1, 1, 0, 50, 200, 0.9)


def test_raw_small_counts_every_batched_read_as_an_op():
    for n_ops in (1, 31, 32, 33, 5000):
        ops = inputs.raw_small_ops(3, 0, n_ops, 2 * 2 ** 20)
        total = sum(len(op[1]) if op[0] == "batch" else 1 for op in ops)
        assert total == n_ops
    ops = inputs.raw_small_ops(3, 0, 60_000, 2 * 2 ** 20)
    share = {kind: 0 for kind in ("read", "batch", "write", "faa")}
    for op in ops:
        share[op[0]] += len(op[1]) if op[0] == "batch" else 1
    for kind, want in zip(("read", "batch", "write", "faa"), inputs.RAW_MIX):
        assert abs(share[kind] / 60_000 - want) < 0.02
    assert all(len(op[2]) == 128 for op in ops if op[0] == "write")
    assert all(op[1] % 128 == 0 for op in ops if op[0] != "batch")


def test_writers_never_share_a_key_or_a_stripe():
    for rank in range(3):
        for is_get, key in inputs.kv_ops(9, rank, 0, 2000, 4000, 3,
                                         0.99, 0.5):
            assert 0 <= key < 4000
            assert is_get or key % 3 == rank
    for rank in range(4):
        for is_read, stripe, slot in inputs.bulk_ops(9, rank, 0, 500, 64,
                                                     4, 4):
            assert 0 <= stripe < 64 and 0 <= slot < 4
            assert is_read or stripe % 4 == rank


def test_churn_regions_are_two_to_six_stripes():
    cycles = inputs.churn_ops(2, 1, 0, 600)
    assert {stripes for stripes, _ in cycles} == {2, 3, 4, 5, 6}
    assert all(len(payload) == 64 for _, payload in cycles)


def test_transfers_touch_two_distinct_accounts():
    for src, dst, amount in inputs.txn_ops(4, 0, 0, 2000, 200, 0.9):
        assert src != dst and 0 <= src < 200 and 0 <= dst < 200
        assert 1 <= amount <= 5


def test_op_counts_scale_with_seconds_in_whole_rounds():
    assert inputs.ops_per_round("raw_small", inputs.ROUNDS) == \
        inputs.REFERENCE_RATE["raw_small"]
    assert inputs.ops_per_round("raw_small", 2 * inputs.ROUNDS) == \
        2 * inputs.REFERENCE_RATE["raw_small"]
    assert inputs.ops_per_round("control_churn", 0.001) == 8
