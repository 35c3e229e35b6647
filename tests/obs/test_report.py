"""Rendering: layer breakdowns, the call census, span dumps."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.report import (
    call_census,
    format_counters,
    format_spans,
    format_table,
    layer_breakdown,
    trace_report,
)
from repro.obs.trace import Tracer
from repro.simnet.kernel import Simulator


def _registry_with_layers():
    reg = MetricsRegistry()
    reg.histogram("span.data.qp.post").observe(0.5e-6)
    reg.histogram("span.data.nic.wire").observe(2e-6)
    # two op kinds fold into the single "op" row
    reg.histogram("span.data.op.read").observe(5e-6)
    reg.histogram("span.data.op.write").observe(7e-6)
    return reg


def test_layer_breakdown_folds_op_kinds_and_skips_empty_layers():
    rows = layer_breakdown(_registry_with_layers())
    layers = [row[0] for row in rows]
    assert layers == ["qp", "wire", "op"]  # pipeline order, empties gone
    op_row = rows[-1]
    assert op_row[1] == "2"  # read + write envelopes
    assert op_row[-1] == "7.00"  # max in microseconds


def test_layer_breakdown_empty_registry():
    assert layer_breakdown(MetricsRegistry()) == []


def test_call_census_and_baseline_delta():
    reg = MetricsRegistry()
    reg.counter("client.master_calls").inc(4)
    reg.counter("rnic.ops_posted").inc(100)
    before = call_census(reg)
    assert before == {"master_rpcs": 4, "data_ops": 100, "doorbells": 0,
                      "bytes_moved": 0}
    reg.counter("rnic.ops_posted").inc(50)
    steady = call_census(reg, baseline=before)
    assert steady["master_rpcs"] == 0
    assert steady["data_ops"] == 50


def test_format_table_aligns_columns():
    text = format_table("t", ["a", "bb"], [["1", "2"], ["333", "4"]])
    lines = text.splitlines()
    assert lines[0] == "t"
    assert all(len(line) == len(lines[1]) for line in lines[1:])


def test_format_table_headers_only():
    text = format_table("t", ["col"], [])
    assert "col" in text


def test_format_spans_orders_and_limits():
    sim = Simulator()
    tracer = Tracer(sim, registry=MetricsRegistry()).enable()
    tracer.record("late", start=0.0)
    for i in range(3):
        tracer.record("early", start=0.0, idx=i)
    # spans sort by start time regardless of record order
    text = format_spans(tracer.spans, limit=2)
    assert "... 2 more spans" in text
    assert "name" in text.splitlines()[0]


def test_trace_report_mentions_drops(monkeypatch):
    monkeypatch.setattr(Tracer, "MAX_SPANS", 1)
    tracer = Tracer(Simulator(), registry=MetricsRegistry())
    tracer.enable()
    tracer.record("x", start=0.0)
    tracer.record("y", start=0.0)
    assert "1 spans dropped" in trace_report(tracer)


def test_format_counters_skips_spans_and_histograms():
    reg = MetricsRegistry()
    reg.counter("rnic.ops_posted", host=0).inc(2)
    reg.histogram("other.lat").observe(1e-6)
    reg.histogram("span.data.qp.post").observe(1e-6)
    text = format_counters(reg)
    assert "rnic.ops_posted = 2" in text
    assert "span." not in text
    assert "other.lat" not in text
