"""Sim-time observability: trace bus + metrics registry + stage timeline.

:class:`Telemetry` bundles the two halves every instrumented component
needs — a :class:`~repro.telemetry.trace.TraceBus` for structured events
and a :class:`~repro.telemetry.metrics.MetricsRegistry` for counters,
gauges and fixed-edge histograms — behind one handle that is attached
*optionally*:

    class Component:
        def __init__(self):
            self._telemetry = None          # disabled: zero overhead

        def attach_telemetry(self, telemetry):
            self._telemetry = telemetry

        def hot_path(self):
            ...
            if self._telemetry is not None:  # guard at the call site
                self._telemetry.emit("component.thing", value=42)

The contract (see ``docs/observability.md``):

* **zero-cost when disabled** — call sites guard on ``is not None``; no
  telemetry object is ever constructed unless a scenario asks for one;
* **deterministic when enabled** — only sim-time quantities are
  recorded, emission is passive (no scheduling, no randomness), so the
  simulation trajectory is bit-identical with telemetry on or off and
  the recorded output is byte-identical across serial/pooled/rerun;
* **byte-stable serialisation** — sorted keys, fixed histogram edges,
  rounded floats.

One deliberate exception: the process-level scale gauges of
:mod:`repro.telemetry.process` (``process.peak_rss_mb``) are wall-clock
quantities sampled on explicit request only; no byte-stable export ever
reads them.
"""

from __future__ import annotations

from typing import Any, Callable, IO, Optional, Sequence

from repro.telemetry.causal import (
    CausalContext,
    ConvergenceLedger,
    DetectionEvent,
    OutageContext,
)
from repro.telemetry.export import render_openmetrics
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.process import peak_rss_mb, sample_scale_gauges
from repro.telemetry.profile import SimProfiler, sample_shard_gauges
from repro.telemetry.timeline import (
    STAGE_DECIDE,
    STAGE_DETECT,
    STAGE_INSTALL,
    STAGE_PUSH,
    STAGES,
)
from repro.telemetry.trace import Span, TraceBus, TraceEvent

__all__ = [
    "CausalContext",
    "ConvergenceLedger",
    "Counter",
    "DetectionEvent",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OutageContext",
    "SimProfiler",
    "Span",
    "STAGES",
    "STAGE_DETECT",
    "STAGE_DECIDE",
    "STAGE_PUSH",
    "STAGE_INSTALL",
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
        # Causal provenance: the episode book is its owner's (the lab hands
        # its own in; a bare context gets a fresh one) and telemetry only
        # observes it — the trace bus stamps the ambient outage id into
        # every event emitted while an outage is open, detections are
        # mirrored as ``detection.*`` events, and the ledger folds the
        # per-prefix restorations per outage.
        self.causal = causal if causal is not None else CausalContext()
        self.causal.attach_telemetry(self)
        self.ledger = ConvergenceLedger(self.causal)
        self.trace.bind_causal(self.causal)

    # Convenience pass-throughs so instrumented code reads naturally.
    def emit(self, name: str, **fields: Any) -> TraceEvent:
        """Emit a trace event (see :meth:`TraceBus.emit`)."""
        return self.trace.emit(name, **fields)

    def span(self, name: str, **fields: Any) -> Span:
        """Open a sim-time span (see :meth:`TraceBus.span`)."""
        return self.trace.span(name, **fields)

    def counter(self, name: str) -> Counter:
        """Get or create a counter."""
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        """Get or create a gauge."""
        return self.metrics.gauge(name)

    def histogram(self, name: str, edges: Sequence[float]) -> Histogram:
        """Get or create a fixed-edge histogram."""
        return self.metrics.histogram(name, edges)

    @property
    def outage_id(self) -> Optional[str]:
        """The ambient outage root id (None outside an outage)."""
        return self.causal.current_id

    def restored(self, subject: Any, kind: str = "prefix") -> None:
        """Record a restored subject into the convergence ledger.

        No-op outside an outage, so the initial table load stays free of
        chains and the per-entry hot path pays one ``is None`` test.
        ``subject`` (a prefix, a VMAC: anything hashable) is kept as it
        is; the ledger formats it when chains are folded.
        """
        if self.causal.current_id is None:
            return
        self.ledger.note_restored(subject, self.trace.now(), kind=kind)
