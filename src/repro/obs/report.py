"""Render observability data: latency breakdowns, call census, traces.

Everything here is pure formatting over a :class:`MetricsRegistry`
snapshot or a span list — no simulation access, so the CLI and tests
can render the same run twice and get identical text.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer

__all__ = [
    "DATA_LAYERS",
    "layer_breakdown",
    "call_census",
    "shard_census",
    "tenant_census",
    "format_table",
    "format_spans",
    "format_counters",
    "trace_report",
]

#: the data-path layers of the span taxonomy, in pipeline order
DATA_LAYERS = [
    ("client", "span.data.client.submit"),
    ("batch", "span.data.batch.flush"),
    ("qp", "span.data.qp.post"),
    ("wire", "span.data.nic.wire"),
    ("cq", "span.data.cq.complete"),
    ("wait", "span.data.future.wait"),
    ("op", "span.data.op"),
]


def _merged_or_none(metrics: MetricsRegistry, name: str):
    try:
        merged = metrics.merged(name)
    except KeyError:
        return None
    return merged if merged.count else None


def layer_breakdown(metrics: MetricsRegistry) -> list[list[str]]:
    """Per-layer latency rows: layer, samples, p50/p95/p99/max in µs.

    ``span.data.op.<kind>`` histograms (the whole-op envelopes) fold
    into one ``op`` row; layers with no samples are omitted.
    """
    rows = []
    for layer, name in DATA_LAYERS:
        if name == "span.data.op":
            parts = [
                n for n in metrics.names() if n.startswith("span.data.op.")
            ]
            hist = None
            for part in parts:
                merged = _merged_or_none(metrics, part)
                if merged is None:
                    continue
                if hist is None:
                    hist = merged
                else:
                    hist.merge(merged)
        else:
            hist = _merged_or_none(metrics, name)
        if hist is None:
            continue
        s = hist.summary().scaled(1e6)
        rows.append([
            layer, str(s.count), f"{s.p50:.2f}", f"{s.p95:.2f}",
            f"{s.p99:.2f}", f"{s.maximum:.2f}",
        ])
    return rows


def call_census(metrics: MetricsRegistry,
                baseline: dict | None = None) -> dict:
    """Control-vs-data call counts, optionally as a delta over *baseline*.

    Returns ``{"master_rpcs": int, "data_ops": int, "doorbells": int,
    "bytes_moved": int}``.  Pass a previous census as *baseline* to get
    the steady-state delta — the separation thesis holds iff
    ``master_rpcs`` is 0 there.
    """
    def total(name):
        return int(metrics.total(name)) if name in metrics.names() else 0

    census = {
        "master_rpcs": total("client.master_calls"),
        "data_ops": total("rnic.ops_posted"),
        "doorbells": total("rnic.doorbells_rung"),
        "bytes_moved": total("client.bytes_moved"),
    }
    if baseline is not None:
        census = {k: v - baseline.get(k, 0) for k, v in census.items()}
    return census


def _label(inst, key: str, default: str) -> str:
    return dict(inst.labels).get(key, default)


def shard_census(metrics: MetricsRegistry,
                 baseline: dict | None = None) -> dict[int, int]:
    """Control RPCs served per metadata shard: ``{shard_id: rpcs}``.

    Sums ``master.rpc_served`` across methods within each shard label.
    Pass a previous census as *baseline* for the steady-state delta —
    with the metadata cache on, every shard's delta must be 0.  Shards
    that served nothing in the window still appear (as 0), so the
    separation proof covers the whole control plane, not just the busy
    shards.
    """
    census: dict[int, int] = {}
    for inst in metrics.series("master.rpc_served"):
        shard = int(_label(inst, "shard", "0"))
        census[shard] = census.get(shard, 0) + int(inst.value)
    if baseline is not None:
        census = {
            shard: total - baseline.get(shard, 0)
            for shard, total in census.items()
        }
    return dict(sorted(census.items()))


def tenant_census(metrics: MetricsRegistry) -> dict[str, dict]:
    """Per-tenant accounting: logical bytes held, quota denials, and
    repair bandwidth spent on that tenant's regions.

    Returns ``{tenant: {"bytes": int, "quota_denied": int,
    "repair_bytes": int}}`` — the isolation evidence: one tenant
    filling its quota shows up as its own denials while every other
    tenant's row is untouched.
    """
    census: dict[str, dict] = {}

    def row(tenant: str) -> dict:
        return census.setdefault(
            tenant, {"bytes": 0, "quota_denied": 0, "repair_bytes": 0}
        )

    for name, key in (("master.tenant_bytes", "bytes"),
                      ("master.quota_denied", "quota_denied"),
                      ("master.repair_bytes", "repair_bytes")):
        for inst in metrics.series(name):
            row(_label(inst, "tenant", "default"))[key] += int(inst.value)
    return dict(sorted(census.items()))


def format_table(title: str, headers: list[str],
                 rows: list[list[str]]) -> str:
    """A fixed-width text table (the benchmarks' reporting idiom)."""
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows
        else len(str(h))
        for i, h in enumerate(headers)
    ]
    def line(cells):
        return "  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
    out = [title, line(headers), line("-" * w for w in widths)]
    out.extend(line(r) for r in rows)
    return "\n".join(out)


def format_spans(spans: list[Span], limit: int = 50) -> str:
    """A chronological span dump: start, duration, kind, name, attrs."""
    ordered = sorted(spans, key=lambda s: (s.start, s.end if s.end is not
                                           None else s.start))
    lines = [f"{'start(us)':>12}  {'dur(us)':>10}  {'kind':<8}  "
             f"{'trace':>6}  name"]
    for span in ordered[:limit]:
        attrs = "".join(
            f" {k}={v}" for k, v in sorted(span.attrs.items())
        )
        trace = str(span.trace_id) if span.trace_id is not None else "-"
        lines.append(
            f"{span.start * 1e6:>12.3f}  {span.duration * 1e6:>10.3f}  "
            f"{span.kind:<8}  {trace:>6}  {span.name}{attrs}"
        )
    if len(ordered) > limit:
        lines.append(f"... {len(ordered) - limit} more spans")
    return "\n".join(lines)


def format_counters(metrics: MetricsRegistry) -> str:
    """Counters/gauges totalled by name, one line each."""
    lines = []
    for name in metrics.names():
        if name.startswith("span."):
            continue
        try:
            value = metrics.total(name)
        except TypeError:
            continue
        lines.append(f"  {name} = {value:g}")
    return "\n".join(lines)


def trace_report(tracer: Tracer, limit: int = 50) -> str:
    """The ``repro trace`` body: span dump plus drop accounting."""
    body = format_spans(tracer.spans, limit=limit)
    if tracer.dropped:
        body += f"\n({tracer.dropped} spans dropped at the buffer cap)"
    return body
