"""Process-level scale gauges (wall-clock, not sim-time).

The full-DFZ scale work (1M-route tables, sharded planner builds) needs
observability that the sim-time contract in :mod:`repro.telemetry`
deliberately excludes: how big the route state actually is, how many
planner shards carried it, and how much resident memory the build cost.
This module supplies those three gauges:

* ``rib.prefixes`` — prefixes held by the sampled RIB (deterministic);
* ``planner.shard_count`` — planner domains the table is split across
  (1 for an in-process controller, ``num_shards`` for a sharded build;
  deterministic);
* ``process.peak_rss_mb`` — peak resident set size of *this* process
  (:func:`peak_rss_mb`), the only wall-clock quantity in the metrics
  registry.

The RSS gauge is inherently nondeterministic, which is why no campaign
record or byte-stable export ever reads it — it exists for interactive
inspection (``python -m repro.cli metrics``) and the scale bench, both
of which read the gauge directly rather than through the deterministic
record path.
"""

from __future__ import annotations

import resource
import sys
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.telemetry.metrics import MetricsRegistry

__all__ = ["peak_rss_mb", "sample_scale_gauges"]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    On Linux ``ru_maxrss`` is *inherited across fork+exec*, so a fresh
    bench worker spawned from a fat parent (a long pytest session) would
    report the parent's peak; ``VmHWM`` in ``/proc/self/status`` resets
    on exec and measures only this process.  The getrusage fallback
    covers non-procfs platforms (``ru_maxrss`` is KiB on Linux, bytes on
    macOS).  Read as bytes: text would import a codec on the first call.
    """
    try:
        with open("/proc/self/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) / 1024  # kB -> MiB
    except (OSError, ValueError, IndexError):
        pass
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return rss / (1024 * 1024)
    return rss / 1024


def sample_scale_gauges(
    telemetry: "Optional[MetricsRegistry]",
    *,
    rib_prefixes: Optional[int] = None,
    shard_count: Optional[int] = None,
) -> None:
    """Record the scale gauges on ``telemetry`` *now*.

    Explicit-sample semantics, like ``Controller.sample_occupancy``:
    callers invoke this at failover/record/merge time, never per route.
    ``None`` fields are skipped so partial samplers (e.g. a shard merge
    that has no single RIB) don't zero the others' gauges.
    """
    if telemetry is None:
        return
    if rib_prefixes is not None:
        telemetry.gauge("rib.prefixes").set(rib_prefixes)
    if shard_count is not None:
        telemetry.gauge("planner.shard_count").set(shard_count)
    telemetry.gauge("process.peak_rss_mb").set(round(peak_rss_mb(), 1))
