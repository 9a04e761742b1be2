"""Benchmark: telemetry cost on the instrumented hot paths.

Drives the FIB updater drain loop and the OpenFlow channel delivery path
in one fresh subprocess with telemetry detached, attached, and attached
with an outage open (gc disabled in the timed sections, min-of-N, see
docs/performance.md for the methodology) and reports us per FIB entry and
per channel batch next to the committed ``BENCH_dataplane.json``.  The two
halves of the contract in docs/observability.md:

* **detached is free** — checked exactly, not timed: under a profile hook
  the detached paths enter no telemetry code at all
  (``tests/test_telemetry.py::TestDetachedHotPaths``), so what is left is
  one attribute load and an ``is not None`` test per instrument site;
* **passive when attached** — all three modes must do *identical
  simulated work* (same writes applied, same messages delivered, same
  final sim time), asserted here on every run.

``REPRO_FULL_SCALE=1`` runs the committed baseline's sizes.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import (
    FULL_SCALE,
    REPO_ROOT,
    load_baseline,
    record_report,
    run_bench_worker,
)

WORKER = os.path.join(REPO_ROOT, "benchmarks", "bench_telemetry_worker.py")

#: What the committed baseline and ``REPRO_FULL_SCALE=1`` measure.
FULL_CONFIG = {"fib_entries": 20000, "channel_batches": 5000, "mods_per_batch": 8, "repeats": 5}
SMOKE_CONFIG = {"fib_entries": 2000, "channel_batches": 500, "mods_per_batch": 4, "repeats": 1}
CONFIG = FULL_CONFIG if FULL_SCALE else SMOKE_CONFIG


def test_telemetry_disabled_is_free(benchmark):
    report = benchmark.pedantic(
        lambda: run_bench_worker(WORKER, CONFIG), rounds=1, iterations=1
    )
    fib, channel = report["fib"], report["channel"]

    # Passivity: every mode performed the same simulated work — including
    # "causal", where an open outage context keeps the ambient stamping
    # and the episode book's restorations on the hot path.
    for section in (fib, channel):
        checks = section["checks"]
        assert checks["detached"] == checks["attached"] == checks["causal"]
    assert fib["checks"]["detached"]["writes"] == CONFIG["fib_entries"]
    assert (
        channel["checks"]["detached"]["delivered"]
        == CONFIG["channel_batches"] * CONFIG["mods_per_batch"]
    )

    baseline = load_baseline()["telemetry"]
    record_report(
        "telemetry cost, detached / attached / causal (committed"
        " BENCH_dataplane.json vs. this run)",
        json.dumps(
            {
                "fib_us_per_entry": {
                    "baseline": baseline["fib"]["us_per_entry"],
                    "this_run": fib["us_per_entry"],
                },
                "channel_us_per_batch": {
                    "baseline": baseline["channel"]["us_per_batch"],
                    "this_run": channel["us_per_batch"],
                },
            },
            indent=2,
            sort_keys=True,
        ),
    )
    benchmark.extra_info["fib_us_per_entry"] = fib["us_per_entry"]
    benchmark.extra_info["channel_us_per_batch"] = channel["us_per_batch"]
