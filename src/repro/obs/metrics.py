"""The metrics registry: named counters, gauges and log histograms.

One registry exists per simulation (see :func:`repro.obs.obs_for`).
Instruments are identified by a dotted name plus a frozen label set,
so every NIC, client and coordination primitive shares the same
namespace while keeping per-host series separable::

    m = obs_for(sim).metrics
    m.counter("rnic.ops_posted", host=3).inc()
    m.total("rnic.ops_posted")          # summed across hosts
    m.histogram("span.data.nic.wire").observe(2.1e-6)

Histograms are HDR-style log-bucketed: bucket boundaries grow
geometrically, so a fixed number of integer buckets covers nanoseconds
to seconds with bounded relative error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "Summary"]

Labels = tuple[tuple[str, str], ...]


def _freeze(labels: dict) -> Labels:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Summary:
    """Standard summary of a latency sample set (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    minimum: float
    maximum: float

    def scaled(self, factor: float) -> "Summary":
        """The same summary in another unit (e.g. 1e6 for microseconds)."""
        return Summary(
            count=self.count,
            mean=self.mean * factor,
            p50=self.p50 * factor,
            p95=self.p95 * factor,
            p99=self.p99 * factor,
            minimum=self.minimum * factor,
            maximum=self.maximum * factor,
        )


class Counter:
    """A monotonically increasing count (ops, bytes, calls)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}{dict(self.labels)} = {self.value}>"


class Gauge:
    """A value that moves both ways (queue depth, in-flight ops)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Labels):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Gauge {self.name}{dict(self.labels)} = {self.value}>"


class Histogram:
    """Log-bucketed histogram of non-negative samples (HDR-style).

    Values at or below ``smallest`` land in bucket 0; above that,
    bucket ``k`` holds values in ``(smallest * growth**(k-1),
    smallest * growth**k]``.  With the default 16 sub-buckets per
    octave the relative quantile error is bounded by
    ``2**(1/16) - 1`` (~4.4%).  ``min``/``max``/``sum`` are tracked
    exactly, so ``percentile(0)`` and ``percentile(100)`` are exact.
    """

    __slots__ = ("name", "labels", "smallest", "_log_growth", "_growth",
                 "count", "total", "minimum", "maximum", "buckets")

    #: sub-buckets per doubling of the value range
    SUBBUCKETS = 16

    def __init__(self, name: str, labels: Labels, smallest: float = 1e-9):
        if smallest <= 0:
            raise ValueError("smallest bucket bound must be positive")
        self.name = name
        self.labels = labels
        self.smallest = smallest
        self._log_growth = math.log(2.0) / self.SUBBUCKETS
        self._growth = 2.0 ** (1.0 / self.SUBBUCKETS)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram {self.name!r} takes values >= 0")
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        index = self._index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    def _index(self, value: float) -> int:
        if value <= self.smallest:
            return 0
        return 1 + int(math.log(value / self.smallest) / self._log_growth)

    def _upper_bound(self, index: int) -> float:
        return self.smallest * self._growth ** index

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0..100), within bucket resolution."""
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} out of range")
        if q == 0:
            return self.minimum
        needed = math.ceil(self.count * q / 100.0)
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= needed:
                # clamp to the exact extremes so no quantile can fall
                # outside the observed value range
                return min(self.maximum,
                           max(self.minimum, self._upper_bound(index)))
        return self.maximum

    def summary(self) -> Summary:
        """The benchmark-standard summary of this histogram."""
        if not self.count:
            raise ValueError(f"histogram {self.name!r} has no samples")
        return Summary(
            count=self.count,
            mean=self.mean,
            p50=self.percentile(50),
            p95=self.percentile(95),
            p99=self.percentile(99),
            minimum=self.minimum,
            maximum=self.maximum,
        )

    def merge(self, other: "Histogram") -> None:
        """Fold *other*'s samples into this histogram (same scale)."""
        if other.smallest != self.smallest:
            raise ValueError("cannot merge histograms with different scales")
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {self.name}{dict(self.labels)} "
                f"n={self.count}>")


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """All instruments of one simulation, keyed by (name, labels)."""

    def __init__(self):
        self._instruments: dict[tuple[str, Labels], Instrument] = {}
        #: name -> instrument class, so one name cannot be a counter on
        #: one host and a histogram on another
        self._kinds: dict[str, type] = {}

    # -- instrument creation -------------------------------------------------

    # the metric name is positional-only so that "name" stays usable
    # as a label key (locks and queues label by their own name)
    def counter(self, name: str, /, **labels) -> Counter:
        return self._get_or_make(Counter, name, labels)

    def gauge(self, name: str, /, **labels) -> Gauge:
        return self._get_or_make(Gauge, name, labels)

    def histogram(self, name: str, /, smallest: float = 1e-9,
                  **labels) -> Histogram:
        hist = self._get_or_make(Histogram, name, labels, smallest=smallest)
        return hist

    def _get_or_make(self, cls: type, name: str, labels: dict,
                     **kwargs) -> Instrument:
        key = (name, _freeze(labels))
        kind = self._kinds.get(name)
        if kind is not None and kind is not cls:
            raise TypeError(
                f"metric {name!r} already registered as {kind.__name__}, "
                f"not {cls.__name__}"
            )
        found = self._instruments.get(key)
        if found is not None:
            return found
        made = cls(name, key[1], **kwargs)
        self._kinds[name] = cls
        self._instruments[key] = made
        return made

    # -- queries -------------------------------------------------------------

    def get(self, name: str, /, **labels) -> Optional[Instrument]:
        """The instrument if it exists; never creates one."""
        return self._instruments.get((name, _freeze(labels)))

    def series(self, name: str) -> list[Instrument]:
        """Every labelled instrument registered under *name*."""
        return [inst for (n, _), inst in sorted(self._instruments.items())
                if n == name]

    def names(self) -> list[str]:
        return sorted(self._kinds)

    def total(self, name: str) -> float:
        """Counter/gauge values summed across all label sets."""
        kind = self._kinds.get(name)
        if kind is Histogram:
            raise TypeError(f"{name!r} is a histogram; use merged()")
        return sum(inst.value for inst in self.series(name))

    def merged(self, name: str) -> Histogram:
        """All of *name*'s labelled histograms folded into one."""
        parts = self.series(name)
        if not parts or self._kinds.get(name) is not Histogram:
            raise KeyError(f"no histogram registered under {name!r}")
        out = Histogram(name, (), smallest=parts[0].smallest)
        for part in parts:
            out.merge(part)
        return out

    def snapshot(self) -> dict:
        """A plain-data dump: ``{name: {labels_repr: value_or_summary}}``.

        Counter/gauge values dump as numbers; histograms as
        ``(count, mean, p50, p99, max)`` tuples.  The snapshot is a
        copy — mutating it does not touch the registry.
        """
        out: dict[str, dict[str, object]] = {}
        for (name, labels), inst in sorted(self._instruments.items()):
            key = ",".join(f"{k}={v}" for k, v in labels) or "-"
            if isinstance(inst, Histogram):
                value = (
                    (inst.count, inst.mean, inst.percentile(50),
                     inst.percentile(99), inst.maximum)
                    if inst.count else (0, 0.0, 0.0, 0.0, 0.0)
                )
            else:
                value = inst.value
            out.setdefault(name, {})[key] = value
        return out

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)
