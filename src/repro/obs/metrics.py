"""The metrics registry: counters, gauges and simulated-time histograms.

One queryable namespace for every number the reproduction produces.
Metric identity is ``name`` plus a label set, rendered Prometheus-style
as ``net.messages{scheme=soap.tcp}``.  ``Observability.collect`` fills
it: histograms from the finished spans' durations, counters and gauges
from the stack's ad-hoc counters (``NetworkStats``, resource-store op
counters, notification-producer counters, ...) — so reading the
registry costs the simulated world nothing.

Histograms record *simulated* durations (seconds of ``env.now``), never
wall-clock time, and keep every observation: no reservoir sampling, no
silent caps, so two identical seeded runs export identical quantiles.
"""

from __future__ import annotations

import math
from fnmatch import fnmatchcase
from typing import Dict, List, Mapping, Tuple, Union

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]
Metric = Union["Counter", "Gauge", "Histogram"]


def labels_key(labels: Mapping[str, str]) -> LabelItems:
    """Canonical (sorted, stringified) form of a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: Mapping[str, str]) -> str:
    """``net.messages{scheme=soap.tcp}`` — the catalog's display form."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels_key(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically growing count (messages, faults, retries)."""

    kind = "counter"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount!r}")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Mirror an externally maintained running total (collectors)."""
        self.value = value


class Gauge:
    """A point-in-time level (queue depth, live subscriptions)."""

    kind = "gauge"
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount


class Histogram:
    """Every observation of a simulated-time quantity, with quantiles.

    Observations are kept in full (simulation runs are modest and the
    "no silent caps" rule forbids dropping the tail); quantiles use the
    nearest-rank definition so they are exact and deterministic.
    """

    kind = "histogram"
    __slots__ = ("values",)

    def __init__(self) -> None:
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def sum(self) -> float:
        return math.fsum(self.values)

    @property
    def max(self) -> float:
        return max(self.values) if self.values else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"percentile q must be in [0, 1], got {q!r}")
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        rank = max(1, math.ceil(q * len(ordered)))
        return ordered[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)


class MetricsRegistry:
    """Get-or-create registry keyed by (name, labels)."""

    def __init__(self) -> None:
        self._metrics: Dict[MetricKey, Metric] = {}

    def _get(self, cls: type, name: str, labels: Mapping[str, str]) -> Metric:
        key = (name, labels_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls()
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {format_metric_name(name, labels)!r} is a "
                f"{metric.kind}, not a {cls.__name__.lower()}"
            )
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        metric = self._get(Counter, name, labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        metric = self._get(Gauge, name, labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, **labels: str) -> Histogram:
        metric = self._get(Histogram, name, labels)
        assert isinstance(metric, Histogram)
        return metric

    # -- conveniences ----------------------------------------------------------

    def inc(self, name: str, amount: float = 1, **labels: str) -> None:
        self.counter(name, **labels).inc(amount)

    def observe(self, name: str, value: float, **labels: str) -> None:
        self.histogram(name, **labels).observe(value)

    # -- queries ---------------------------------------------------------------

    def query(self, pattern: str = "*") -> List[Tuple[str, Dict[str, str], Metric]]:
        """All metrics whose dotted name matches *pattern* (fnmatch).

        ``query("net.*")`` returns the network namespace; results are
        sorted by (name, labels) so iteration order is deterministic.
        """
        out: List[Tuple[str, Dict[str, str], Metric]] = []
        for (name, items) in sorted(self._metrics):
            if fnmatchcase(name, pattern):
                out.append((name, dict(items), self._metrics[(name, items)]))
        return out

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge (0 if never touched)."""
        metric = self._metrics.get((name, labels_key(labels)))
        if metric is None:
            return 0
        if isinstance(metric, Histogram):
            raise TypeError(f"{name!r} is a histogram; use query()")
        return metric.value

    def snapshot(self) -> List[Dict[str, object]]:
        """JSON-ready list of every metric, deterministically ordered."""
        out: List[Dict[str, object]] = []
        for name, labels, metric in self.query("*"):
            entry: Dict[str, object] = {
                "name": name,
                "labels": labels,
                "kind": metric.kind,
            }
            if isinstance(metric, Histogram):
                entry["count"] = metric.count
                entry["sum"] = metric.sum
                entry["p50"] = metric.p50
                entry["p95"] = metric.p95
                entry["max"] = metric.max
            else:
                entry["value"] = metric.value
            out.append(entry)
        return out
