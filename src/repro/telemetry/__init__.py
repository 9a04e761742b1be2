"""Sim-time observability: trace bus + metrics registry + the episode book.

:class:`~repro.telemetry.trace.Telemetry` bundles the two halves every
instrumented component needs — a :class:`~repro.telemetry.trace.TraceBus` for structured events
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

from typing import Any

from repro import lazy_export

#: Public name -> the module that defines it, resolved on first access
#: (PEP 562): importing one module of the package loads none of the others.
_EXPORTS = {
    "STAGES": "repro.telemetry.causal",
    "CausalContext": "repro.telemetry.causal",
    "DetectionEvent": "repro.telemetry.causal",
    "OutageContext": "repro.telemetry.causal",
    "render_openmetrics": "repro.telemetry.export",
    "Counter": "repro.telemetry.metrics",
    "Gauge": "repro.telemetry.metrics",
    "Histogram": "repro.telemetry.metrics",
    "MetricsRegistry": "repro.telemetry.metrics",
    "peak_rss_mb": "repro.telemetry.process",
    "sample_scale_gauges": "repro.telemetry.process",
    "SimProfiler": "repro.telemetry.profile",
    "sample_shard_gauges": "repro.telemetry.profile",
    "Span": "repro.telemetry.trace",
    "Telemetry": "repro.telemetry.trace",
    "TraceBus": "repro.telemetry.trace",
    "TraceEvent": "repro.telemetry.trace",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(globals(), _EXPORTS, name)
