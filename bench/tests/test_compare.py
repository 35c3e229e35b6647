import json
from pathlib import Path

import compare
import pytest

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_verdict_applies_the_bound_in_the_metric_direction():
    assert compare.verdict(100.0, 105.0, "higher", 0.10) == "same"
    assert compare.verdict(100.0, 89.0, "higher", 0.10) == "worse"
    assert compare.verdict(100.0, 111.0, "higher", 0.10) == "better"
    assert compare.verdict(100.0, 111.0, "lower", 0.10) == "worse"
    assert compare.verdict(100.0, 89.0, "lower", 0.10) == "better"
    assert compare.verdict(100.0, 90.0, "lower", 0.10) == "same"


def test_zero_bound_rejects_any_rise():
    assert compare.verdict(0.0, 0.0, "lower", 0.0) == "same"
    assert compare.verdict(0.0, 1e-9, "lower", 0.0) == "worse"
    assert compare.verdict(0.01, 0.0, "lower", 0.0) == "better"


def test_spread_wider_than_the_bound_is_unresolved():
    assert compare.verdict(100.0, 80.0, "higher", 0.10,
                           spread=0.15) == "unresolved"
    assert compare.verdict(100.0, 80.0, "higher", 0.10,
                           spread=0.05) == "worse"


def _result(workload="raw_small", host=1000.0, failed=0, digest="d",
            sim_ops=10.0):
    metrics = {m["name"]: 10.0 for m in SPEC["end_to_end"]}
    metrics["host_ops_per_s"] = host
    metrics["sim_ops_per_s"] = sim_ops
    return {
        "workload": workload, "metrics": metrics,
        "round_rates": [host * f for f in (0.99, 1.0, 1.0, 1.0, 1.01,
                                           1.0, 1.0)],
        "setup_samples": [10.0, 10.0, 10.1],
        "attempted": 7000, "failed": failed, "sim_digest": digest,
    }


def _file(*results, seed=1, seconds=8):
    return {"seed": seed, "seconds": seconds, "trace": 0,
            "results": list(results)}


def test_compare_rows_and_regression():
    rows = compare.compare(_file(_result()), _file(_result(host=800.0)),
                           SPEC["end_to_end"])
    by_metric = {row[1]: row for row in rows}
    assert set(by_metric) == (
        {m["name"] for m in SPEC["end_to_end"]}
        | {"failed_ops_share", "sim_digest"})
    assert by_metric["host_ops_per_s"][-1] == "worse"
    assert by_metric["host_ops_per_s"][4] == pytest.approx(0.80)
    assert by_metric["sim_ops_per_s"][-1] == "same"
    assert by_metric["failed_ops_share"][-1] == "same"
    assert by_metric["sim_digest"][-1] == "identical"


def test_same_seed_sim_values_must_be_identical():
    # a shift well inside the cross-seed bound of BENCHMARK.json is still
    # a changed model when both files ran the same seed
    moved = _file(_result(sim_ops=9.9))
    rows = compare.compare(_file(_result()), moved, SPEC["end_to_end"])
    assert {row[1]: row[-1] for row in rows}["sim_ops_per_s"] == "worse"
    rows = compare.compare(_file(_result()), moved, SPEC["end_to_end"],
                           model_changed=True)
    assert {row[1]: row[-1] for row in rows}["sim_ops_per_s"] == "same"


def test_one_failed_op_is_a_regression():
    rows = compare.compare(_file(_result()), _file(_result(failed=1)),
                           SPEC["end_to_end"])
    assert {row[1]: row[-1] for row in rows}["failed_ops_share"] == "worse"


def test_noisy_rounds_are_reported_unresolved_not_same():
    noisy = _result(host=900.0)
    noisy["round_rates"] = [600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0,
                            1200.0]
    rows = compare.compare(_file(_result()), _file(noisy),
                           SPEC["end_to_end"])
    assert {row[1]: row[-1] for row in rows}["host_ops_per_s"] == "unresolved"


def test_refuses_different_seeds_and_op_counts():
    with pytest.raises(ValueError, match="seed"):
        compare.compare(_file(_result()), _file(_result(), seed=2),
                        SPEC["end_to_end"])
    with pytest.raises(ValueError, match="seconds"):
        compare.compare(_file(_result()), _file(_result(), seconds=4),
                        SPEC["end_to_end"])
    short = _result()
    short["attempted"] = 6000
    with pytest.raises(ValueError, match="op counts"):
        compare.compare(_file(_result()), _file(short), SPEC["end_to_end"])


def test_cli_exit_codes(tmp_path, capsys):
    a, b, c, d = (tmp_path / n for n in "abcd")
    a.write_text(json.dumps(_file(_result())))
    b.write_text(json.dumps(_file(_result(host=800.0))))
    c.write_text(json.dumps(_file(_result(), seed=3)))
    d.write_text(json.dumps(_file(_result(digest="e"))))
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(a), str(b)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([str(a), str(c)]) == 2
    # every row reads "same" and only the digest moved: still a failure,
    # unless the PR says it meant to change the model
    assert compare.main([str(a), str(d)]) == 1
    out = capsys.readouterr().out
    assert "differs" in out and "0 worse" in out
    assert compare.main(["--model-changed", str(a), str(d)]) == 0
    assert compare.main(["--model-changed", str(a), str(b)]) == 1
