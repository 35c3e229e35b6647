"""The tracer: spans on simulated time, zero-cost when disabled."""

import pytest

from repro.obs import NULL_SPAN, Observability, obs_for
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.simnet.kernel import Simulator
from tests.probes import instruments


def test_disabled_tracer_hands_out_the_shared_null_span():
    tracer = Tracer(Simulator())
    span = tracer.span("data.op.read")
    assert span is NULL_SPAN
    assert span is tracer.span("data.op.write")  # no allocation per call
    span.finish(ok=True)  # a no-op, never raises
    assert tracer.spans == []


def test_disabled_tracer_records_and_events_are_no_ops():
    registry = MetricsRegistry()
    tracer = Tracer(Simulator(), registry=registry)
    tracer.record("data.qp.post", start=0.0)
    tracer.event("data.retry.replay")
    assert tracer.spans == []
    assert instruments(registry) == 0  # not even a histogram was registered


def test_span_measures_simulated_time():
    sim = Simulator()
    tracer = Tracer(sim, registry=MetricsRegistry()).enable()

    def app():
        span = tracer.span("data.op.read", trace_id=tracer.next_trace_id(),
                           nbytes=64)
        yield sim.timeout(2.5e-6)
        span.finish(ok=True)

    sim.run(until=sim.process(app()))
    (span,) = tracer.spans
    assert span.duration == pytest.approx(2.5e-6)
    assert span.attrs == {"nbytes": 64, "ok": True}
    assert span.trace_id == 1
    # the duration fed the span histogram
    hist = tracer.registry.merged("span.data.op.read")
    assert hist.count == 1


def test_finish_is_idempotent():
    sim = Simulator()
    tracer = Tracer(sim, registry=MetricsRegistry()).enable()
    span = tracer.span("x")
    span.finish()
    first_end = span.end
    span.finish(late=True)
    assert span.end == first_end
    assert "late" not in span.attrs
    assert len(tracer.spans) == 1


def test_unfinished_span_has_no_duration():
    tracer = Tracer(Simulator()).enable()
    span = tracer.span("x")
    with pytest.raises(ValueError):
        _ = span.duration


def test_buffer_cap_drops_spans_but_keeps_feeding_histograms(monkeypatch):
    monkeypatch.setattr(Tracer, "MAX_SPANS", 3)
    tracer = Tracer(Simulator(), registry=MetricsRegistry())
    tracer.enable()
    for _ in range(5):
        tracer.record("x", start=0.0)
    assert len(tracer.spans) == 3
    assert tracer.dropped == 2
    assert tracer.registry.merged("span.x").count == 5


def test_obs_for_is_one_context_per_simulator():
    sim_a, sim_b = Simulator(), Simulator()
    ctx_a = obs_for(sim_a)
    assert obs_for(sim_a) is ctx_a
    assert obs_for(sim_b) is not ctx_a
    assert isinstance(ctx_a, Observability)
    # the tracer feeds that same simulation's registry
    assert ctx_a.tracer.registry is ctx_a.metrics
