"""Per-operation tracing on simulated time.

A :class:`Tracer` stamps :class:`Span`\\ s as operations cross layers.
Spans carry the *simulated* clock, never wall time, so a trace is a
faithful record of where modelled time went and replays bit-for-bit
with the simulation that produced it.

The tracer is **disabled by default** and zero-cost when disabled:
``span()`` hands back a shared null span whose ``end`` is a no-op, no
span objects are allocated, no histograms are fed, and — crucially —
nothing ever advances or perturbs the simulated clock, so enabling
tracing cannot change what a simulation computes (the randomized
harness asserts exactly this).

Span taxonomy (see DESIGN.md "Observability"):

=====================  ==================================================
``control.*``          control-path work: ``control.master.<method>``,
                       ``control.nic.reg_mr``, ``control.cm.connect`` …
``data.client.submit`` client-side issue: plan, stage, translate
``data.batch.flush``   one IoBatch flush: coalesce + doorbell posting
``data.qp.post``       WQE accepted → engine launch (doorbell + queue)
``data.nic.wire``      launch → remote completion raised (wire + DMA)
``data.cq.complete``   completion raised → the CQ consumer retired it
``data.future.wait``   caller parked on a future → resumed
``data.op.<kind>``     whole-op envelope: submit → future resolved
=====================  ==================================================
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Span", "Tracer", "NULL_SPAN"]


class Span:
    """One timed interval in one layer, on the simulated clock."""

    __slots__ = ("tracer", "name", "kind", "trace_id", "start", "end",
                 "attrs")

    def __init__(self, tracer: "Tracer", name: str, kind: str,
                 trace_id: Optional[int], start: float, attrs: dict):
        self.tracer = tracer
        self.name = name
        #: "control", "data" or "app" — the census dimension
        self.kind = kind
        #: ties the spans of one logical operation together
        self.trace_id = trace_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} not finished")
        return self.end - self.start

    def finish(self, **attrs) -> None:
        """Stamp the end time and hand the span to the tracer."""
        if self.end is not None:
            return
        self.end = self.tracer.sim.now
        if attrs:
            self.attrs.update(attrs)
        self.tracer._record(self)


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def finish(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans for one simulation; off unless enabled."""

    #: spans kept; later ones are dropped (histograms still fed)
    MAX_SPANS = 200_000

    def __init__(self, sim, registry=None):
        self.sim = sim
        #: fed with ``span.<name>`` duration histograms when present
        self.registry = registry
        self.enabled = False
        self.spans: list[Span] = []
        #: spans discarded once the buffer filled (histograms still fed)
        self.dropped = 0
        self._trace_seq = 0

    # -- switches ------------------------------------------------------------

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> "Tracer":
        self.enabled = False
        return self

    # -- span creation -------------------------------------------------------

    def next_trace_id(self) -> int:
        """A fresh id tying one operation's spans together."""
        self._trace_seq += 1
        return self._trace_seq

    def span(self, name: str, kind: str = "data",
             trace_id: Optional[int] = None, **attrs):
        """Open a span starting now; ``finish()`` stamps the end.

        Returns :data:`NULL_SPAN` when disabled — callers never branch.
        """
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, kind, trace_id, self.sim.now, attrs)

    def record(self, name: str, start: float,
               trace_id: Optional[int] = None, **attrs) -> None:
        """Record a completed data-path interval ``[start, now]`` in one
        call.

        The instrumentation hot paths use this form: they stash a bare
        ``float`` timestamp while the op is in flight and only build
        the span object at completion.
        """
        if not self.enabled:
            return
        span = Span(self, name, "data", trace_id, start, attrs)
        span.end = self.sim.now
        self._record(span)

    def event(self, name: str, **attrs) -> None:
        """A zero-duration data-path marker (fault injected, retry
        scheduled…)."""
        self.record(name, self.sim.now, **attrs)

    # -- internals -----------------------------------------------------------

    def _record(self, span: Span) -> None:
        if len(self.spans) < self.MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1
        if self.registry is not None:
            self.registry.histogram(f"span.{span.name}").observe(
                span.duration
            )
