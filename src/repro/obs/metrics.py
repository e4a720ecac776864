"""Typed metrics: counters, gauges, histograms, with labelled children.

A :class:`MetricsRegistry` owns named metrics.  Each metric may have
**labelled children** (``counter.labels(procedure="boundedness")``), a
child per distinct label set, capped at
:data:`DEFAULT_LABEL_CARDINALITY` distinct sets per metric — beyond the
cap new label sets collapse into one shared overflow child, so a
label-explosion bug degrades a metric's resolution instead of memory.

The three types:

* :class:`CounterMetric` — monotone totals (``inc``); snapshot adapters
  that mirror an externally-maintained total may ``set_total``;
* :class:`GaugeMetric` — last-value samples remembering their ``max`` and
  ``min`` (this is the single source of truth for e.g. peak frontier);
* :class:`HistogramMetric` — ``observe`` a stream of values; keeps count,
  sum, min, max (and hence mean) plus a fixed geometric bucket layout
  (:data:`HISTOGRAM_BUCKET_BOUNDS`) from which p50/p95/p99 percentiles
  are estimated — all without storing the stream.

Everything renders to a flat text block (``registry.render()``) and a
JSON-ready nested dict (``registry.as_dict()``); the registry is
dependency-free and cheap enough to exist on every
:class:`~repro.analysis.session.AnalysisSession`.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Maximum distinct label sets per metric before overflow collapsing.
DEFAULT_LABEL_CARDINALITY = 64


def _geometric_bounds() -> Tuple[float, ...]:
    # three buckets per decade, 1µs .. 10ks: wide enough for seconds-flavoured
    # timings at one end and small integer observations (parallelism, depths)
    # at the other, narrow enough (±~47% per bucket) for honest percentiles
    bounds: List[float] = []
    for decade in range(-6, 5):
        for mantissa in (1.0, 2.15, 4.64):
            bounds.append(round(mantissa * 10.0 ** decade, 10))
    return tuple(bounds)


#: Upper bounds (``le`` semantics) of the shared histogram bucket layout.
#: One fixed layout for every histogram keeps ``merge`` a plain
#: element-wise sum and the wire shape a bare list of counts.
HISTOGRAM_BUCKET_BOUNDS: Tuple[float, ...] = _geometric_bounds()

#: The label marker carried by the shared overflow child.
OVERFLOW_LABEL = ("__overflow__", "true")

#: A canonicalised label set.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base: name, description, labelled children with a cardinality cap."""

    kind = "metric"

    def __init__(
        self,
        name: str,
        description: str = "",
        *,
        max_label_sets: int = DEFAULT_LABEL_CARDINALITY,
    ) -> None:
        self.name = name
        self.description = description
        self.max_label_sets = max_label_sets
        self._children: Dict[LabelKey, "Metric"] = {}
        self._children_lock = threading.Lock()
        self.labels_dropped = 0

    def labels(self, **labels: Any) -> "Metric":
        """The child metric for this label set (created on first use).

        Past the cardinality cap, every *new* label set maps to one
        shared overflow child (labelled ``__overflow__=true``) and is
        counted in ``labels_dropped``; existing children keep working.

        Thread-safe: child creation is locked, so two threads requesting
        the same new label set get the same child (the fast path — an
        existing child — stays lock-free).
        """
        key = _label_key(labels)
        child = self._children.get(key)
        if child is not None:
            return child
        with self._children_lock:
            child = self._children.get(key)
            if child is not None:
                return child
            if len(self._children) >= self.max_label_sets:
                self.labels_dropped += 1
                overflow = self._children.get((OVERFLOW_LABEL,))
                if overflow is None:
                    overflow = self._spawn()
                    self._children[(OVERFLOW_LABEL,)] = overflow
                return overflow
            child = self._spawn()
            self._children[key] = child
            return child

    def _spawn(self) -> "Metric":
        return type(self)(self.name, self.description, max_label_sets=0)

    def children(self) -> Iterator[Tuple[LabelKey, "Metric"]]:
        """The labelled children, in insertion order.

        Iterates a snapshot taken under the children lock, so a live
        scrape (``/v1/metrics``) never races concurrent label creation
        into a ``dictionary changed size during iteration`` error.
        """
        with self._children_lock:
            return iter(list(self._children.items()))

    # -- subclass hooks --------------------------------------------------

    def value_dict(self) -> Dict[str, Any]:  # pragma: no cover - interface
        raise NotImplementedError

    def value_text(self) -> str:  # pragma: no cover - interface
        raise NotImplementedError

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot including labelled children."""
        out = {"type": self.kind, **self.value_dict()}
        if self.description:
            out["description"] = self.description
        with self._children_lock:
            children = list(self._children.items())
        if children:
            out["labels"] = {
                "{" + ",".join(f"{k}={v}" for k, v in key) + "}": child.value_dict()
                for key, child in children
            }
        if self.labels_dropped:
            out["labels_dropped"] = self.labels_dropped
        return out


class CounterMetric(Metric):
    """A monotone total."""

    kind = "counter"

    def __init__(self, name: str, description: str = "", *, max_label_sets: int = DEFAULT_LABEL_CARDINALITY) -> None:
        super().__init__(name, description, max_label_sets=max_label_sets)
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (must be ≥ 0) to the total."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Snapshot adapter: mirror an externally-maintained total.

        Totals must not go backwards; lets subsystems that keep raw int
        counters on their hot paths (e.g. the Embedder) publish into the
        registry without paying per-increment method calls.
        """
        if value < self.value:
            raise ValueError(
                f"counter {self.name!r}: total went backwards "
                f"({self.value} -> {value})"
            )
        self.value = value

    def total(self) -> float:
        """Own value plus all labelled children."""
        return self.value + sum(child.value for child in self._children.values())

    def value_dict(self) -> Dict[str, Any]:
        return {"value": self.value}

    def value_text(self) -> str:
        return f"{self.value:g}"


class GaugeMetric(Metric):
    """A sampled value remembering its extremes."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "", *, max_label_sets: int = DEFAULT_LABEL_CARDINALITY) -> None:
        super().__init__(name, description, max_label_sets=max_label_sets)
        self.value: Optional[float] = None
        self.max: Optional[float] = None
        self.min: Optional[float] = None

    def set(self, value: float) -> None:
        """Record a sample (updates value/max/min)."""
        self.value = value
        if self.max is None or value > self.max:
            self.max = value
        if self.min is None or value < self.min:
            self.min = value

    def value_dict(self) -> Dict[str, Any]:
        return {"value": self.value, "max": self.max, "min": self.min}

    def value_text(self) -> str:
        if self.value is None:
            return "(no samples)"
        return f"{self.value:g} (max {self.max:g}, min {self.min:g})"


class HistogramMetric(Metric):
    """A stream summary: count, sum, min, max, and bucketed percentiles.

    Observations additionally land in the shared geometric bucket layout
    (:data:`HISTOGRAM_BUCKET_BOUNDS`, plus one overflow bucket), so
    :meth:`percentile` can estimate p50/p95/p99 by linear interpolation
    inside the containing bucket — bounded error (one bucket's width,
    ±~47%) at O(len(bounds)) memory, never storing the stream.
    """

    kind = "histogram"

    def __init__(self, name: str, description: str = "", *, max_label_sets: int = DEFAULT_LABEL_CARDINALITY) -> None:
        super().__init__(name, description, max_label_sets=max_label_sets)
        self.count: int = 0
        self.sum: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: List[int] = [0] * (len(HISTOGRAM_BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect.bisect_left(HISTOGRAM_BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> Optional[float]:
        return self.sum / self.count if self.count else None

    def percentile(self, q: float) -> Optional[float]:
        """Estimate the *q*-quantile (``0 < q <= 1``) from the buckets.

        Interpolates linearly inside the containing bucket and clamps to
        the observed ``[min, max]``, so single-observation histograms and
        extreme quantiles report exact extremes rather than bucket edges.
        """
        if not self.count:
            return None
        if self.min is None or self.max is None:  # pragma: no cover - invariant
            return None
        rank = q * self.count
        seen = 0.0
        for index, bucket_count in enumerate(self.buckets):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                if index == 0:
                    lower = 0.0
                else:
                    lower = HISTOGRAM_BUCKET_BOUNDS[index - 1]
                if index < len(HISTOGRAM_BUCKET_BOUNDS):
                    upper = HISTOGRAM_BUCKET_BOUNDS[index]
                else:
                    upper = self.max
                fraction = (rank - seen) / bucket_count
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
            seen += bucket_count
        return self.max

    def value_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "buckets": list(self.buckets),
        }

    def value_text(self) -> str:
        if not self.count:
            return "(no observations)"
        text = f"n={self.count} sum={self.sum:g} mean={self.mean:g}"
        p50, p95, p99 = (
            self.percentile(0.50),
            self.percentile(0.95),
            self.percentile(0.99),
        )
        if p50 is not None:
            text += f" p50={p50:g} p95={p95:g} p99={p99:g}"
        if self.min is not None and self.max is not None:
            text += f" min={self.min:g} max={self.max:g}"
        return text


def _merge_metric(dst: Metric, src: Metric) -> None:
    """Fold one metric's values (and labelled children) into another."""
    if isinstance(src, CounterMetric):
        dst.inc(src.value)
    elif isinstance(src, GaugeMetric):
        if src.value is not None:
            dst.set(src.value)
        if src.max is not None and (dst.max is None or src.max > dst.max):
            dst.max = src.max
        if src.min is not None and (dst.min is None or src.min < dst.min):
            dst.min = src.min
    elif isinstance(src, HistogramMetric):
        dst.count += src.count
        dst.sum += src.sum
        if src.min is not None and (dst.min is None or src.min < dst.min):
            dst.min = src.min
        if src.max is not None and (dst.max is None or src.max > dst.max):
            dst.max = src.max
        for index, bucket_count in enumerate(src.buckets):
            dst.buckets[index] += bucket_count
    for key, child in src.children():
        _merge_metric(dst.labels(**dict(key)), child)
    dst.labels_dropped += src.labels_dropped


class MetricsRegistry:
    """A namespace of metrics, get-or-create by name.

    Re-requesting a name returns the existing metric; requesting it as a
    different type raises — a registry is a schema, not a grab bag.
    """

    def __init__(
        self, *, max_label_sets: int = DEFAULT_LABEL_CARDINALITY
    ) -> None:
        self._metrics: Dict[str, Metric] = {}
        self.max_label_sets = max_label_sets
        self._lock = threading.RLock()

    def _get(self, cls, name: str, description: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is not None and type(metric) is cls:
            return metric
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, description, max_label_sets=self.max_label_sets)
                self._metrics[name] = metric
            elif type(metric) is not cls:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested as {cls.kind}"
                )
            return metric

    def counter(self, name: str, description: str = "") -> CounterMetric:
        """Get or create the counter *name*."""
        return self._get(CounterMetric, name, description)

    def gauge(self, name: str, description: str = "") -> GaugeMetric:
        """Get or create the gauge *name*."""
        return self._get(GaugeMetric, name, description)

    def histogram(self, name: str, description: str = "") -> HistogramMetric:
        """Get or create the histogram *name*."""
        return self._get(HistogramMetric, name, description)

    def get(self, name: str) -> Optional[Metric]:
        """The metric registered under *name*, or ``None``."""
        return self._metrics.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> List[str]:
        """Registered metric names, sorted (snapshot under the lock)."""
        with self._lock:
            return sorted(self._metrics)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready snapshot of every metric (sorted by name)."""
        with self._lock:
            metrics = [self._metrics[name] for name in sorted(self._metrics)]
        return {metric.name: metric.as_dict() for metric in metrics}

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s metrics into this registry.

        Counters add, gauges sample the other's last value (widening
        max/min), histograms combine their summaries; labelled children
        merge recursively.  Lets per-run registries (one interpreted run,
        one benchmark repetition) roll up into a long-lived one.

        Thread-safe with respect to this registry's structure: the whole
        fold runs under the registry lock, so concurrent merges from
        several registries serialise instead of interleaving
        half-applied children.  (See ``docs/observability.md`` for the
        full concurrency contract.)
        """
        with self._lock:
            for name in other.names():
                src = other._metrics[name]
                dst = self._get(type(src), name, src.description)
                _merge_metric(dst, src)

    def render(self) -> str:
        """Human-readable multi-line dump, one line per (metric, label set)."""
        lines: List[str] = []
        for name in self.names():
            metric = self._metrics[name]
            lines.append(f"{name:<34} {metric.value_text()}")
            for key, child in metric.children():
                label = "{" + ",".join(f"{k}={v}" for k, v in key) + "}"
                lines.append(f"  {name}{label:<40} {child.value_text()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Wire round-trip: as_dict() -> registry
# ----------------------------------------------------------------------

_KIND_FACTORIES = {
    CounterMetric.kind: "counter",
    GaugeMetric.kind: "gauge",
    HistogramMetric.kind: "histogram",
}


def _parse_label_key(text: str) -> Dict[str, str]:
    """Invert the ``{k=v,...}`` rendering used by :meth:`Metric.as_dict`.

    Label values containing ``,`` or ``=`` do not round-trip — the wire
    format is for the registry's own label discipline (procedure
    names, gap keys, cell names), not arbitrary strings.
    """
    body = text.strip()
    if body.startswith("{") and body.endswith("}"):
        body = body[1:-1]
    labels: Dict[str, str] = {}
    for part in body.split(","):
        if not part:
            continue
        key, _, value = part.partition("=")
        labels[key] = value
    return labels


def _apply_values(metric: Metric, values: Dict[str, Any]) -> None:
    if isinstance(metric, CounterMetric):
        value = values.get("value")
        if isinstance(value, (int, float)) and value > metric.value:
            metric.value = value
    elif isinstance(metric, GaugeMetric):
        for field in ("value", "max", "min"):
            raw = values.get(field)
            if isinstance(raw, (int, float)):
                setattr(metric, field, raw)
    elif isinstance(metric, HistogramMetric):
        count = values.get("count")
        total = values.get("sum")
        metric.count = int(count) if isinstance(count, (int, float)) else 0
        metric.sum = float(total) if isinstance(total, (int, float)) else 0.0
        for field in ("min", "max"):
            raw = values.get(field)
            if isinstance(raw, (int, float)):
                setattr(metric, field, raw)
        buckets = values.get("buckets")
        if isinstance(buckets, list) and len(buckets) == len(metric.buckets):
            metric.buckets = [int(b) if isinstance(b, (int, float)) else 0 for b in buckets]
        elif metric.count and metric.max is not None:
            # older senders (or hand-written payloads) without bucket data:
            # approximate by dropping every observation at the max, which
            # keeps percentile() defined and clamped to the true extremes
            metric.buckets[bisect.bisect_left(HISTOGRAM_BUCKET_BOUNDS, metric.max)] += metric.count


def registry_from_dict(payload: Dict[str, Any]) -> MetricsRegistry:
    """Rebuild a :class:`MetricsRegistry` from :meth:`~MetricsRegistry.as_dict`.

    This is the wire half of the registry contract: a remote process
    (the serve daemon answering a ``stats`` op, a bench runner)
    snapshots its registry with ``as_dict()``, ships the plain dict, and
    the receiver rebuilds it here and can fold it into a long-lived
    registry with :meth:`~MetricsRegistry.merge` — counters add, gauges
    widen their extremes, histograms combine, labelled children
    reattach.  Unknown metric types are skipped rather than rejected, so
    a newer sender can talk to an older receiver.
    """
    registry = MetricsRegistry()
    if not isinstance(payload, dict):
        return registry
    for name, block in payload.items():
        if not isinstance(block, dict):
            continue
        kind = block.get("type")
        factory = _KIND_FACTORIES.get(kind)
        if factory is None:
            continue
        metric = getattr(registry, factory)(name, block.get("description", ""))
        _apply_values(metric, block)
        labels = block.get("labels")
        if isinstance(labels, dict):
            for label_text, values in labels.items():
                if not isinstance(values, dict):
                    continue
                child = metric.labels(**_parse_label_key(label_text))
                _apply_values(child, values)
        dropped = block.get("labels_dropped")
        if isinstance(dropped, int):
            metric.labels_dropped = dropped
    return registry
