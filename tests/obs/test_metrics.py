"""The metrics registry: counters, gauges, log-bucketed histograms."""

import math

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from tests.probes import instruments


def test_counter_counts_and_rejects_decrease():
    reg = MetricsRegistry()
    c = reg.counter("x.ops", host=1)
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)


def test_same_name_and_labels_share_one_instrument():
    reg = MetricsRegistry()
    assert reg.counter("x.ops", host=1) is reg.counter("x.ops", host=1)
    assert reg.counter("x.ops", host=1) is not reg.counter("x.ops", host=2)


def test_name_is_usable_as_a_label_key():
    reg = MetricsRegistry()
    c = reg.counter("lock.acquisitions", name="mutex", host=0)
    c.inc()
    assert reg.total("lock.acquisitions") == 1


def test_total_sums_across_label_sets():
    reg = MetricsRegistry()
    reg.counter("x.ops", host=1).inc(3)
    reg.counter("x.ops", host=2).inc(4)
    assert reg.total("x.ops") == 7
    assert len(reg.series("x.ops")) == 2


def test_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x.ops")
    with pytest.raises(TypeError):
        reg.gauge("x.ops")
    with pytest.raises(TypeError):
        reg.histogram("x.ops")


def test_total_of_histogram_rejected():
    reg = MetricsRegistry()
    reg.histogram("x.lat").observe(1.0)
    with pytest.raises(TypeError):
        reg.total("x.lat")


def test_gauge_moves_both_ways():
    reg = MetricsRegistry()
    g = reg.gauge("x.inflight")
    g.set(5)
    g.set(3)
    assert g.value == 3
    g.set(0)
    assert g.value == 0


def test_get_never_creates():
    reg = MetricsRegistry()
    assert reg.series("x.ops") == []
    assert instruments(reg) == 0
    made = reg.counter("x.ops")
    assert reg.series("x.ops") == [made]
    assert instruments(reg) == 1


def test_histogram_quantiles_within_relative_error():
    h = Histogram("lat", ())
    values = [i * 1e-6 for i in range(1, 1001)]
    for v in values:
        h.observe(v)
    # exact extremes, bounded relative error in between
    assert h.percentile(0) == 1e-6
    assert h.percentile(100) == 1000e-6
    for q in (50, 95, 99):
        exact = values[math.ceil(len(values) * q / 100) - 1]
        assert h.percentile(q) == pytest.approx(exact, rel=0.05)
    assert h.count == 1000
    assert h.mean == pytest.approx(sum(values) / len(values))


def test_histogram_empty_and_tiny_values():
    h = Histogram("lat", ())
    with pytest.raises(ValueError):
        h.percentile(50)
    with pytest.raises(ValueError):
        h.summary()
    h.observe(0.0)  # at/below the smallest bound: bucket 0
    assert h.percentile(50) == 0.0
    with pytest.raises(ValueError):
        h.observe(-1.0)


def test_histogram_single_sample_summary():
    h = Histogram("lat", ())
    h.observe(3e-6)
    s = h.summary()
    assert s.count == 1
    assert s.minimum == s.maximum == 3e-6
    # quantiles clamp to the observed extremes
    assert s.p50 == s.p99 == 3e-6


def test_merged_folds_label_sets():
    reg = MetricsRegistry()
    reg.histogram("x.lat", host=1).observe(1e-6)
    reg.histogram("x.lat", host=2).observe(2e-6)
    merged = reg.merged("x.lat")
    assert merged.count == 2
    assert merged.minimum == 1e-6
    assert merged.maximum == 2e-6
    with pytest.raises(KeyError):
        reg.merged("nope")
