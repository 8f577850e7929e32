"""Labelled counters, gauges, and bounded-reservoir histograms.

One :class:`MetricsRegistry` is shared across a whole
:class:`~repro.chain.network.BlockchainNetwork` (every peer, engine, and
sync manager records into it under a ``peer=<node_id>`` label), so the
exporters in :mod:`repro.obs.export` can aggregate across the fleet
without walking N scattered stat objects.

Histograms keep a bounded reservoir (Vitter's algorithm R with a
deterministic per-metric RNG, so runs stay a pure function of their
seed) plus exact count/sum/min/max.  Percentiles are computed from the
reservoir — exact until the reservoir overflows, a uniform sample after.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "merge_histograms"]

#: Reservoir size bounding each histogram's memory, tunable per metric.
DEFAULT_RESERVOIR = 1024

_PERCENTILES = (50.0, 95.0, 99.0)


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically-growing (by convention) numeric counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict[str, str]):
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def as_record(self) -> dict[str, Any]:
        return {"type": "metric", "kind": "counter", "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge(Counter):
    """A value that is written, not only added to (current sizes,
    depths, high-water marks)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        self.value = value

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def as_record(self) -> dict[str, Any]:
        record = super().as_record()
        record["kind"] = "gauge"
        return record


class Histogram:
    """Bounded-reservoir distribution with exact count/sum/min/max.

    ``observe`` is O(1); ``percentile`` sorts the reservoir on demand
    (callers are exporters and report builders, not hot paths).
    """

    __slots__ = ("name", "labels", "count", "total", "min", "max",
                 "_reservoir", "_capacity", "_rng", "_sorted")

    def __init__(self, name: str, labels: dict[str, str], capacity: int = DEFAULT_RESERVOIR):
        if capacity < 1:
            raise ValueError("histogram reservoir capacity must be >= 1")
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._reservoir: list[float] = []
        self._capacity = capacity
        self._rng = random.Random(f"obs:{name}:{_label_key(labels)}")
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._sorted = None
        if len(self._reservoir) < self._capacity:
            self._reservoir.append(value)
        else:
            # Algorithm R: keep each of the `count` observations in the
            # reservoir with equal probability capacity/count.
            slot = self._rng.randrange(self.count)
            if slot < self._capacity:
                self._reservoir[slot] = value

    @property
    def values(self) -> list[float]:
        """A copy of the (bounded) reservoir, in observation order."""
        return list(self._reservoir)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile (``q`` in [0, 100]) of the reservoir."""
        if not self._reservoir:
            return 0.0
        if self._sorted is None:
            self._sorted = sorted(self._reservoir)
        data = self._sorted
        if len(data) == 1:
            return data[0]
        rank = (q / 100.0) * (len(data) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] + (data[hi] - data[lo]) * frac

    def summary(self) -> dict[str, float]:
        out: dict[str, float] = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
        }
        for q in _PERCENTILES:
            out[f"p{q:g}"] = self.percentile(q)
        return out

    def as_record(self) -> dict[str, Any]:
        return {"type": "metric", "kind": "histogram", "name": self.name,
                "labels": dict(self.labels), "summary": self.summary(),
                "values": self.values}


def merge_histograms(histograms: Iterable[Histogram], name: str = "merged") -> Histogram:
    """Pool several reservoirs into one cross-label distribution.

    Used by the report builder to answer "commit latency across all
    peers" from per-peer histograms.  The merged reservoir is the
    concatenation (re-sampled down if it overflows the capacity), which
    is a fair pooled sample when the inputs used the same capacity.
    """
    histograms = list(histograms)
    capacity = max((h._capacity for h in histograms), default=DEFAULT_RESERVOIR)
    merged = Histogram(name, {}, capacity=capacity)
    for hist in histograms:
        merged.count += hist.count
        merged.total += hist.total
        if hist.min is not None and (merged.min is None or hist.min < merged.min):
            merged.min = hist.min
        if hist.max is not None and (merged.max is None or hist.max > merged.max):
            merged.max = hist.max
        merged._reservoir.extend(hist._reservoir)
    if len(merged._reservoir) > capacity:
        merged._reservoir = merged._rng.sample(merged._reservoir, capacity)
    merged._sorted = None
    return merged


class MetricsRegistry:
    """Get-or-create store of labelled metrics.

    Metrics are keyed by ``(name, sorted(labels))``; repeated lookups
    return the same object, so call sites may cache the handle (hot
    paths should) or re-resolve every time (cold paths can).
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, str, tuple[tuple[str, str], ...]], Any] = {}

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str, capacity: int = DEFAULT_RESERVOIR, **labels: str) -> Histogram:
        key = ("histogram", name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = Histogram(name, labels, capacity=capacity)
            self._metrics[key] = metric
        return metric

    def _get(self, kind: str, factory: Callable[..., Any], name: str, labels: dict[str, str]) -> Any:
        key = (kind, name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory(name, labels)
            self._metrics[key] = metric
        return metric

    # -- read side ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def collect(self) -> list[dict[str, Any]]:
        """All metrics as JSON-serializable records (sorted, stable)."""
        return [self._metrics[key].as_record() for key in sorted(self._metrics)]

    def counters(self, name: str) -> list[Counter]:
        return [m for (kind, n, _), m in sorted(self._metrics.items())
                if kind in ("counter", "gauge") and n == name]

    def histograms(self, name: str) -> list[Histogram]:
        return [m for (kind, n, _), m in sorted(self._metrics.items())
                if kind == "histogram" and n == name]

    def total(self, name: str) -> float:
        """Sum of one counter name across every label set."""
        return sum(c.value for c in self.counters(name))

    def merged_histogram(self, name: str) -> Histogram:
        """Cross-label pooled distribution for one histogram name."""
        return merge_histograms(self.histograms(name), name=name)

    def names(self) -> list[str]:
        return sorted({name for (_, name, _) in self._metrics})
