"""Deterministic sim profiler: per-handler event counts and sim-time shares.

Wall-clock profilers (cProfile & friends) are useless under the
repository's determinism contract — their numbers change run to run and
machine to machine.  :class:`SimProfiler` profiles in *simulated* time
instead: it observes every executed event (via
``Simulator.set_observer``) and attributes to each handler — keyed by
the event's schedule-time ``name`` — both an execution count and the
simulated time the clock advanced to reach it.  The result answers "what
does the event loop spend sim time on?" and is byte-identical across
serial/pooled/rerun, so it can be exported and diffed like any other
telemetry.

The observer is strictly passive: it counts and sums,
never schedules, cancels or mutates simulator state.  When no observer
is installed the engine pays one attribute load + ``is not None`` test
per event — the same bargain as every other telemetry guard.

:func:`sample_shard_gauges` is the sharded-build companion: it folds the
per-shard build summaries of ``run_sharded_build`` into per-shard gauges
(prefixes, groups, flow-mods) plus min/max skew gauges, so a sharded
planning run exposes its balance through the same registry as everything
else.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.metrics import MetricsRegistry


class SimProfiler:
    """Per-handler (event-name) execution counts and sim-time attribution."""

    __slots__ = ("_counts", "_sim_time", "_last_now")

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._sim_time: Dict[str, float] = {}
        #: Clocks start at zero, so the first event is attributed its own time.
        self._last_now = 0.0

    @property
    def events_observed(self) -> int:
        """Number of events observed so far."""
        return sum(self._counts.values())

    def observe(self, name: str, when: float) -> None:
        """Record one executed event (called by the simulator's observer
        hook).  The sim time advanced since the previously observed event
        is attributed to this event's handler."""
        key = name or "(unnamed)"
        counts = self._counts
        counts[key] = counts.get(key, 0) + 1
        advanced = when - self._last_now
        self._last_now = when
        if advanced > 0.0:
            self._sim_time[key] = self._sim_time.get(key, 0.0) + advanced

    def to_dict(self) -> Dict[str, Any]:
        """Byte-stable snapshot: per-handler counts, attributed sim time
        and its share of the total observed sim time."""
        total_time = sum(self._sim_time.values())
        handlers: Dict[str, Any] = {}
        for key in sorted(self._counts):
            attributed = self._sim_time.get(key, 0.0)
            handlers[key] = {
                "count": self._counts[key],
                "sim_time_s": round(attributed, 9),
                "share": round(attributed / total_time, 6) if total_time else 0.0,
            }
        return {
            "events_observed": self.events_observed,
            "sim_time_total_s": round(total_time, 9),
            "handlers": handlers,
        }

    def __repr__(self) -> str:
        return f"SimProfiler({len(self._counts)} handlers, {self.events_observed} events)"


def sample_shard_gauges(
    telemetry: Optional[MetricsRegistry],
    shards: Sequence[Tuple[int, int, int, int]],
) -> None:
    """Record per-shard build gauges into ``telemetry`` (no-op when None).

    ``shards`` holds ``(shard_index, prefixes_loaded, groups, flow_mods)``
    tuples, one per shard of a ``run_sharded_build``.  Besides the
    per-shard gauges this also sets ``shard.prefixes_min`` /
    ``shard.prefixes_max`` so shard skew is visible without reading every
    per-shard series.
    """
    if telemetry is None or not shards:
        return
    prefix_counts: List[int] = []
    for shard_index, prefixes_loaded, groups, flow_mods in shards:
        telemetry.gauge(f"shard.{shard_index}.prefixes").set(prefixes_loaded)
        telemetry.gauge(f"shard.{shard_index}.groups").set(groups)
        telemetry.gauge(f"shard.{shard_index}.flow_mods").set(flow_mods)
        prefix_counts.append(prefixes_loaded)
    telemetry.gauge("shard.prefixes_min").set(min(prefix_counts))
    telemetry.gauge("shard.prefixes_max").set(max(prefix_counts))
