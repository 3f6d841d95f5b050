"""Minimal metrics primitives: counters, gauges, fixed-bucket histograms.

The daemon and the router each keep every counter and gauge they serve
in one :class:`MetricsRegistry`.  Its snapshot (:meth:`~MetricsRegistry.to_dict`)
is the single source of both views: the JSON ``/v1/metrics`` payload is
derived from it, and :func:`repro.obs.export.to_prometheus` renders it
family by family for ``GET /metrics``.

Each metric guards its state with its own lock, so concurrent observers
(the asyncio event-loop thread, executor callbacks, HTTP scrape threads)
never contend on a global.  A counter or gauge may instead be computed
on read (``fn=``) from state the program keeps anyway.  Histogram
buckets are fixed at construction (cumulative ``le`` bounds in the
Prometheus style); the default latency ladder spans 100 µs – 60 s.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "COUNT_BUCKETS",
    "FAST_LATENCY_BUCKETS",
    "LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "counter_view",
    "of_kind",
    "sum_counters",
]

#: Solve-wall / queue-wait latencies: 100 µs .. 60 s.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: Cache lookups / per-hop forwards: 10 µs .. 1 s.
FAST_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001,
    0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Evaluations-per-job style counts: powers of ten up to 10M.
COUNT_BUCKETS: Tuple[float, ...] = (
    1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0, 10000000.0,
)


class _Scalar:
    """A counter or gauge: one value, or a value per label set.

    With ``fn`` the metric holds no state and reads ``fn()`` instead:
    the way to serve a value the program already keeps (a queue's
    length, a shard's health).  Labelled scalars are always computed:
    ``fn`` returns ``{"|"-joined label values: value}``.  Values keep
    their type, so an int counter stays an int.
    """

    kind = ""

    def __init__(
        self,
        name: str,
        help: str = "",
        fn: Optional[Callable[[], Any]] = None,
        labelnames: Sequence[str] = (),
    ):
        if labelnames and fn is None:
            raise ValueError("labelled %s %r needs fn" % (self.kind, name))
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._fn = fn
        self._lock = threading.Lock()
        self._value: Any = 0

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> Any:
        if self._fn is not None:
            return self._fn()
        with self._lock:
            return self._value

    def snapshot(self) -> Dict[str, Any]:
        if self.labelnames:
            return {
                "type": self.kind,
                "labelnames": list(self.labelnames),
                "series": dict(self.value),
            }
        return {"type": self.kind, "value": self.value}


class Counter(_Scalar):
    """Monotonic counter."""

    kind = "counter"


class Gauge(_Scalar):
    """Last-write-wins gauge."""

    kind = "gauge"

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)


class _HistogramSeries:
    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, bounds: Tuple[float, ...]):
        self._lock = threading.Lock()
        self._bounds = bounds
        self._counts = [0] * len(bounds)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        bounds = self._bounds
        lo, hi = 0, len(bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            if lo < len(bounds):
                self._counts[lo] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc_sum = self._sum
        cumulative: List[List[float]] = []
        running = 0
        for bound, count in zip(self._bounds, counts):
            running += count
            cumulative.append([bound, running])
        return {"buckets": cumulative, "sum": acc_sum, "count": total}


class Histogram:
    """Fixed-bucket cumulative histogram, optionally labelled.

    Without ``labelnames`` observations go straight to a single series.
    With labels, :meth:`labels` returns (creating on first use) a child
    series keyed by the label values, and the snapshot carries a
    ``series`` mapping keyed by ``"|"``-joined label values.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        if any(math.isnan(b) for b in self.buckets):
            raise ValueError("histogram bucket bounds must not be NaN")
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        if self.labelnames:
            self._series: Optional[Dict[str, _HistogramSeries]] = {}
            self._default: Optional[_HistogramSeries] = None
        else:
            self._series = None
            self._default = _HistogramSeries(self.buckets)

    def observe(self, value: float) -> None:
        if self._default is None:
            raise ValueError(
                "histogram %r has labels %r; use .labels()" % (self.name, self.labelnames)
            )
        self._default.observe(float(value))

    def labels(self, *values: str) -> _HistogramSeries:
        if self._series is None:
            raise ValueError("histogram %r has no labels" % self.name)
        if len(values) != len(self.labelnames):
            raise ValueError(
                "histogram %r expects %d label values, got %d"
                % (self.name, len(self.labelnames), len(values))
            )
        key = "|".join(str(v) for v in values)
        series = self._series.get(key)
        if series is None:
            with self._lock:
                series = self._series.setdefault(key, _HistogramSeries(self.buckets))
        return series

    def snapshot(self) -> Dict[str, Any]:
        if self._default is not None:
            snap = self._default.snapshot()
            snap["type"] = "histogram"
            return snap
        with self._lock:
            items = list(self._series.items())  # type: ignore[union-attr]
        return {
            "type": "histogram",
            "labelnames": list(self.labelnames),
            "series": {key: series.snapshot() for key, series in items},
        }


class MetricsRegistry:
    """Ordered get-or-create store of named metrics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: Dict[str, Any] = {}

    def _get_or_create(self, name: str, cls: type, factory) -> Any:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
        if type(metric) is not cls:
            raise TypeError("metric %r already registered as %s" % (name, metric.kind))
        return metric

    def counter(self, name: str, help: str = "", **kwargs: Any) -> Counter:
        """Get or create a counter (``fn=``, ``labelnames=``: :class:`_Scalar`)."""
        return self._get_or_create(name, Counter, lambda: Counter(name, help, **kwargs))

    def gauge(self, name: str, help: str = "", **kwargs: Any) -> Gauge:
        """Get or create a gauge (``fn=``, ``labelnames=``: :class:`_Scalar`)."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name, help, **kwargs))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = LATENCY_BUCKETS,
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._get_or_create(
            name, Histogram, lambda: Histogram(name, help, buckets, labelnames)
        )

    def names(self) -> List[str]:
        with self._lock:
            return list(self._metrics)

    def to_dict(self, kinds: Optional[Iterable[str]] = None) -> Dict[str, Any]:
        """Snapshot every metric (optionally filtered by kind) as JSON,
        each with its ``help`` text."""
        wanted = set(kinds) if kinds is not None else None
        with self._lock:
            items = list(self._metrics.items())
        out: Dict[str, Any] = {}
        for name, metric in items:
            if wanted is not None and metric.kind not in wanted:
                continue
            out[name] = metric.snapshot()
            out[name]["help"] = metric.help
        return out


def of_kind(snapshot: Mapping[str, Any], kind: str) -> Dict[str, Any]:
    """The metrics of one kind in a :meth:`MetricsRegistry.to_dict`
    snapshot."""
    return {name: m for name, m in snapshot.items() if m["type"] == kind}


def counter_view(snapshot: Mapping[str, Any], prefix: str) -> Dict[str, Any]:
    """``{key: value}`` of a snapshot's unlabelled
    ``<prefix><key>_total`` counters, in registration order (the flat
    counter sections of the JSON ``/v1/metrics`` payload)."""
    return {
        name[len(prefix):-len("_total")]: m["value"]
        for name, m in of_kind(snapshot, "counter").items()
        if name.startswith(prefix) and name.endswith("_total") and "value" in m
    }


def sum_counters(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """The unlabelled counters of several snapshots summed by name: the
    fleet totals of a router's shards, as a snapshot."""
    out: Dict[str, Any] = {}
    for snapshot in snapshots:
        for name, m in of_kind(snapshot, "counter").items():
            if "value" in m:
                total = out.setdefault(name, dict(m, value=0))
                total["value"] += m["value"]
    return out
