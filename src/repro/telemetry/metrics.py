"""Deterministic sim-time metrics: counters, gauges, fixed-edge histograms.

The registry is designed for the repository's determinism contract
(serial == pooled == rerun byte-identical):

* every recorded value is a *simulated* quantity (sim seconds, queue
  depths, batch sizes) — never wall clock, never ids or memory addresses;
* histograms use **fixed bucket edges** chosen at creation time, so the
  serialised output is byte-stable regardless of the sample stream order
  (no dynamic re-binning, no quantile sketches);
* :meth:`MetricsRegistry.to_dict` sorts every key, so ``json.dumps(...,
  sort_keys=True)`` of the result is reproducible across processes.

Instrument call sites must guard on the telemetry handle (``if
self._telemetry is not None: ...``) so disabled runs never pay more than
one attribute load and an ``is not None`` test.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, TypeVar

_Instrument = TypeVar("_Instrument")


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def to_dict(self) -> Dict[str, Any]:
        """Primitive representation (stable key order via sorted dumps)."""
        return {"type": "counter", "value": self.value}

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time level with a high-water mark.

    ``add`` models queue-style occupancy (enqueue/dequeue); ``set``
    models sampled levels (group count, pool occupancy).  The high-water
    mark records the largest level ever seen, which is what campaign
    records export (peak flow-mod queue depth, peak VNH occupancy).
    """

    __slots__ = ("name", "value", "high_water", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.high_water = 0
        self.samples = 0

    def set(self, value: int) -> None:
        """Record the current level."""
        self.value = value
        self.samples += 1
        if value > self.high_water:
            self.high_water = value

    def add(self, delta: int) -> None:
        """Shift the current level by ``delta`` (may be negative)."""
        self.set(self.value + delta)

    def to_dict(self) -> Dict[str, Any]:
        """Primitive representation."""
        return {
            "type": "gauge",
            "value": self.value,
            "high_water": self.high_water,
            "samples": self.samples,
        }

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value}, high_water={self.high_water})"


class Histogram:
    """Fixed-edge histogram (byte-stable output).

    ``edges`` are the *upper* bounds of the finite buckets; an implicit
    ``+inf`` bucket catches everything above the last edge.  Edges are
    frozen at creation — re-requesting the same histogram with different
    edges is an error, so two call sites cannot silently skew each
    other's binning.
    """

    __slots__ = ("name", "edges", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, edges: Sequence[float]) -> None:
        if not edges:
            raise ValueError(f"histogram {name}: needs at least one bucket edge")
        ordered = tuple(float(edge) for edge in edges)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name}: edges must be strictly increasing")
        self.name = name
        self.edges: Tuple[float, ...] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        index = len(self.edges)
        for i, edge in enumerate(self.edges):
            if value <= edge:
                index = i
                break
        self.counts[index] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-interpolated quantile estimate (None when empty).

        Prometheus-style: find the first bucket whose cumulative count
        reaches ``q * count`` and interpolate linearly inside it.  The
        estimate is clamped to the observed ``[min, max]`` so the
        overflow bucket and sparse edges cannot extrapolate beyond the
        sample range.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"histogram {self.name}: quantile {q} outside [0, 1]")
        if self.count == 0 or self.min is None or self.max is None:
            return None
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative < target or bucket_count == 0:
                continue
            if index >= len(self.edges):
                # Overflow bucket: no finite upper bound to interpolate to.
                return self.max
            lower = self.edges[index - 1] if index > 0 else self.min
            upper = self.edges[index]
            estimate = lower + (upper - lower) * (target - previous) / bucket_count
            return min(max(estimate, self.min), self.max)
        return self.max

    def to_dict(self) -> Dict[str, Any]:
        """Primitive representation (rounded so floats stay stable)."""
        p50 = self.quantile(0.50)
        p95 = self.quantile(0.95)
        p99 = self.quantile(0.99)
        return {
            "type": "histogram",
            "edges": list(self.edges),
            "counts": list(self.counts),
            "count": self.count,
            "total": round(self.total, 9),
            "min": round(self.min, 9) if self.min is not None else None,
            "max": round(self.max, 9) if self.max is not None else None,
            "p50": round(p50, 6) if p50 is not None else None,
            "p95": round(p95, 6) if p95 is not None else None,
            "p99": round(p99, 6) if p99 is not None else None,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count})"


class MetricsRegistry:
    """Name-addressed store of counters, gauges and histograms.

    ``counter(name)`` / ``gauge(name)`` / ``histogram(name, edges)`` are
    get-or-create: the first caller defines the instrument, later callers
    share it.  A name can hold exactly one instrument kind.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        return self._get_or_create(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        return self._get_or_create(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create the histogram called ``name`` with ``edges``."""
        histogram = self._get_or_create(name, Histogram, lambda: Histogram(name, edges))
        if histogram.edges != tuple(float(edge) for edge in edges):
            raise ValueError(
                f"histogram {name}: edges {list(edges)} conflict with the"
                f" registered edges {list(histogram.edges)}"
            )
        return histogram

    def get(self, name: str) -> Optional[Any]:
        """The instrument called ``name``, if registered."""
        return self._instruments.get(name)

    def to_dict(self) -> Dict[str, Any]:
        """Primitive snapshot of every instrument, keyed by sorted name."""
        return {
            name: self._instruments[name].to_dict()
            for name in sorted(self._instruments)
        }

    def _get_or_create(
        self,
        name: str,
        kind: Type[_Instrument],
        factory: Callable[[], _Instrument],
    ) -> _Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ValueError(
                f"metric {name!r} is a {type(instrument).__name__},"
                f" not a {kind.__name__}"
            )
        return instrument

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
