"""Sim-time observability: trace bus + metrics registry + the episode book.

:class:`Telemetry` bundles the two halves every instrumented component
needs — a :class:`~repro.telemetry.trace.TraceBus` for structured events
and a :class:`~repro.telemetry.metrics.MetricsRegistry` for counters,
gauges and fixed-edge histograms — with a reference to its owner's
episode book (:class:`~repro.telemetry.causal.CausalContext`), behind
one handle that is attached *optionally*:

    class Component:
        def __init__(self):
            self._telemetry = None          # detached: zero overhead

        def attach_telemetry(self, telemetry):
            self._telemetry = telemetry

        def hot_path(self):
            ...
            if self._telemetry is not None:  # guard at the call site
                self._telemetry.emit("component.thing", value=42)

The contract (see ``docs/observability.md``):

* **zero-cost when detached** — call sites guard on ``is not None``; a
  component nobody attached a context to (every provider router, every
  non-measured edge) never enters this package;
* **deterministic when attached** — only sim-time quantities are
  recorded, emission is passive (no scheduling, no randomness), so the
  simulation trajectory is bit-identical with components attached or
  not and the recorded output is byte-identical across
  serial/pooled/rerun;
* **byte-stable serialisation** — sorted keys, fixed histogram edges,
  rounded floats.

One deliberate exception: the process-level scale gauges of
:mod:`repro.telemetry.process` (``process.peak_rss_mb``) are wall-clock
quantities sampled on explicit request only; no byte-stable export ever
reads them.
"""

from __future__ import annotations

from typing import Any, Callable, IO, Optional, Sequence

from repro.telemetry.causal import STAGES, CausalContext, DetectionEvent, OutageContext
from repro.telemetry.export import render_openmetrics
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.process import peak_rss_mb, sample_scale_gauges
from repro.telemetry.profile import SimProfiler, sample_shard_gauges
from repro.telemetry.trace import Span, TraceBus, TraceEvent

__all__ = [
    "CausalContext",
    "Counter",
    "DetectionEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OutageContext",
    "SimProfiler",
    "Span",
    "STAGES",
    "Telemetry",
    "TraceBus",
    "TraceEvent",
    "peak_rss_mb",
    "render_openmetrics",
    "sample_scale_gauges",
    "sample_shard_gauges",
]


class Telemetry:
    """One scenario's observability context (trace bus + metrics)."""

    def __init__(
        self,
        clock: Callable[[], float],
        trace_capacity: int = 4096,
        sink: Optional[IO[str]] = None,
        causal: Optional[CausalContext] = None,
    ) -> None:
        self.trace = TraceBus(clock, capacity=trace_capacity, sink=sink)
        self.metrics = MetricsRegistry()
        # The episode book is its owner's (the lab hands its own in; a
        # bare context gets a fresh one) and never learns who writes to
        # it: :meth:`emit` stamps the open outage's id into every event
        # and shows the book each event's name, :meth:`restored` notes the
        # per-prefix restorations.
        self.causal = causal if causal is not None else CausalContext()

    def emit(self, name: str, **fields: Any) -> TraceEvent:
        """Emit a trace event (see :meth:`TraceBus.emit`).

        While an outage is open the event is stamped with its root id as
        an ``outage`` field — the passive thread that chains detection,
        engine flush, flow-mod push and FIB install records back to one
        failure injection; purely additive (pre-failure events are
        unchanged, an explicit ``outage`` field wins) — and may be the
        episode's first mark of a convergence stage."""
        outage_id = self.causal.current_id
        if outage_id is not None:
            fields.setdefault("outage", outage_id)
        event = self.trace.emit(name, **fields)
        self.causal.mark_stage(name, event.at)  # a no-op outside an outage
        return event

    def span(self, name: str, **fields: Any) -> Span:
        """Open a sim-time :class:`Span` at the current clock reading; its
        closing event goes through :meth:`emit`, so it is stamped with the
        outage open when it *ends*."""
        return Span(self, name, self.trace.now(), fields)

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create a fixed-edge histogram."""
        return self.metrics.histogram(name, edges)

    def restored(self, subject: Any, kind: str = "prefix") -> None:
        """Record a restored subject into the episode book.

        No-op outside an outage, so the initial table load stays free of
        chains and the per-entry hot path pays one ``is None`` test.
        ``subject`` (a prefix, a VMAC: anything hashable) is kept as it
        is; the book formats it when chains are folded.
        """
        if self.causal.current is None:
            return
        self.causal.note_restored(subject, self.trace.now(), kind=kind)
