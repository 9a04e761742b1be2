"""Benchmark: data-plane fast path vs. the frozen pre-rewrite implementations.

Measures the three rewritten hot layers — flow table, event engine, LPM
table — against their frozen legacy copies (benchmarks/_legacy_dataplane.py),
in a **fresh subprocess** with **gc disabled** inside the timed sections
and the legacy/new sides measured **adjacently** (see docs/performance.md
for the methodology).  The committed baseline ``BENCH_dataplane.json`` at
the repo root is the tracked perf-trajectory point; regenerate it with::

    python benchmarks/write_dataplane_baseline.py

Size knobs:

* default — full-size new path (10k flow-mods), legacy flow table capped
  at 3k entries (it is quadratic; measuring it smaller *overstates* its
  throughput, so the asserted ratios are conservative lower bounds);
* ``DATAPLANE_FULL=1`` — uncapped legacy at 10k + 100k prefixes (what the
  committed baseline uses);
* ``DATAPLANE_SMOKE=1`` — tiny sizes for CI; ratio assertions are skipped
  (shared-runner timing is too noisy) and only sanity/structure is checked.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.conftest import REPO_ROOT, record_report, run_bench_worker
WORKER = os.path.join(REPO_ROOT, "benchmarks", "bench_dataplane_worker.py")
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_dataplane.json")

SMOKE = os.environ.get("DATAPLANE_SMOKE") == "1"
FULL = os.environ.get("DATAPLANE_FULL") == "1"

if SMOKE:
    CONFIG = {
        "flowmods": 800,
        "legacy_flowmod_cap": 800,
        "events": 20000,
        "prefixes": 4000,
        "repeats": 1,
        "flowmod_repeats": 1,
    }
elif FULL:
    CONFIG = {
        "flowmods": 10000,
        "legacy_flowmod_cap": 10000,
        "events": 200000,
        "prefixes": 100000,
        "repeats": 3,
        "flowmod_repeats": 1,
    }
else:
    CONFIG = {
        "flowmods": 10000,
        "legacy_flowmod_cap": 3000,
        "events": 200000,
        "prefixes": 50000,
        "repeats": 3,
        "flowmod_repeats": 2,
    }


def run_worker(config) -> dict:
    """Run the A/B measurements in a fresh interpreter and parse its JSON."""
    return run_bench_worker(WORKER, config)


_RESULT = {}


def test_dataplane_fastpath(benchmark):
    """Fresh-subprocess A/B of the three rewritten layers."""
    result = benchmark.pedantic(lambda: run_worker(CONFIG), rounds=1, iterations=1)
    _RESULT["report"] = result
    # Persist the measured report when asked (CI feeds it to
    # benchmarks/bench_trajectory.py instead of measuring a second time).
    report_path = os.environ.get("DATAPLANE_REPORT")
    if report_path:
        with open(report_path, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=2, sort_keys=True)
            handle.write("\n")
    flow = result["flowmods"]
    events = result["events"]
    lpm = result["lpm"]
    pending = result["pending_events"]

    benchmark.extra_info["install_speedup"] = flow["install_speedup"]
    benchmark.extra_info["modify_speedup"] = flow["modify_speedup"]
    benchmark.extra_info["event_fifo_speedup"] = max(
        events["fifo"]["singles_speedup"], events["fifo"]["batch_speedup"]
    )
    benchmark.extra_info["lpm_lookup_speedup"] = lpm["lookup_speedup"]
    benchmark.extra_info["pending_events_speedup"] = pending["speedup"]
    record_report(
        "Data-plane fast path (legacy vs. indexed/batched, fresh subprocess)",
        json.dumps(result, indent=2, sort_keys=True),
    )

    # Structure sanity in every mode.
    for key in ("install_speedup", "modify_speedup"):
        assert flow[key] > 0
    assert lpm["new_bytes_per_prefix"] < lpm["legacy_bytes_per_prefix"]
    # Only live prefixes are stored, so memory stays bounded through
    # churn; the slack is CPython not shrinking a dict that held more.
    assert lpm["new_memory_growth"] < 1.6
    if SMOKE:
        return

    # Acceptance ratios (conservative: legacy flow table measured at a
    # smaller, therefore faster-per-op, size unless DATAPLANE_FULL=1).
    assert flow["install_speedup"] >= 5.0, flow
    assert flow["modify_speedup"] >= 5.0, flow
    # The O(1) pending_events counter is orders of magnitude faster.
    assert pending["speedup"] >= 50.0, pending


def test_dataplane_baseline_committed(benchmark):
    """The tracked perf-trajectory point exists and meets the targets."""

    def load():
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)

    baseline = benchmark.pedantic(load, rounds=1, iterations=1)
    flow = baseline["flowmods"]
    assert flow["entries"] == flow["legacy_entries"] == 10000
    assert flow["install_speedup"] >= 5.0
    assert flow["modify_speedup"] >= 5.0
    assert baseline["lpm"]["prefixes"] >= 100000
    if _RESULT:
        current = _RESULT["report"]["flowmods"]["install_speedup"]
        record_report(
            "Dataplane baseline (BENCH_dataplane.json) vs. this run",
            json.dumps(
                {
                    "baseline_install_speedup": flow["install_speedup"],
                    "current_install_speedup": current,
                    "baseline_python": baseline.get("python"),
                },
                indent=2,
            ),
        )
