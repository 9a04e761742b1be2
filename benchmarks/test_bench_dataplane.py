"""Benchmark: the data-plane structures, in a fresh subprocess.

The event engine and the LPM table are measured against their frozen
legacy copies (benchmarks/_legacy_dataplane.py), the legacy/new sides
**adjacently**; the flow table is measured in absolute us per install /
modify / lookup at the rule counts the system can reach (7, 34, 902) —
reported, not gated.  Everything runs in a **fresh subprocess** with **gc
disabled** inside the timed sections (see docs/performance.md for the
methodology).  The committed baseline ``BENCH_dataplane.json`` at the repo
root is the tracked perf-trajectory point; regenerate it with::

    python benchmarks/write_dataplane_baseline.py

Size knobs:

* default — 200k events, 50k prefixes;
* ``DATAPLANE_FULL=1`` — 100k prefixes (what the committed baseline uses);
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

#: What ``write_dataplane_baseline.py`` and ``DATAPLANE_FULL=1`` measure.
FULL_CONFIG = {"events": 200000, "prefixes": 100000, "repeats": 3, "flow_table_ops": 20000}
#: Rule counts of the flow-table section (the worker's FLOW_TABLE_SIZES).
FLOW_TABLE_SIZES = ("7", "34", "902")

if SMOKE:
    CONFIG = {"events": 20000, "prefixes": 4000, "repeats": 1, "flow_table_ops": 2000}
elif FULL:
    CONFIG = FULL_CONFIG
else:
    CONFIG = dict(FULL_CONFIG, prefixes=50000)


def run_worker(config) -> dict:
    """Run the measurements in a fresh interpreter and parse its JSON."""
    return run_bench_worker(WORKER, config)


_RESULT = {}


def test_dataplane_fastpath(benchmark):
    """Fresh-subprocess measurement of the event engine, LPM and flow table."""
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

    for size in FLOW_TABLE_SIZES:
        benchmark.extra_info[f"flow_table_{size}_lookup_us"] = flow[size]["lookup_us_per_op"]
    benchmark.extra_info["event_fifo_speedup"] = max(
        events["fifo"]["singles_speedup"], events["fifo"]["batch_speedup"]
    )
    benchmark.extra_info["lpm_lookup_speedup"] = lpm["lookup_speedup"]
    benchmark.extra_info["pending_events_speedup"] = pending["speedup"]
    record_report(
        "Data-plane structures (fresh subprocess)",
        json.dumps(result, indent=2, sort_keys=True),
    )

    # Structure sanity in every mode.  The flow-table figures are
    # reported, not gated: no workload holds more than a few dozen rules.
    assert sorted(flow) == sorted(FLOW_TABLE_SIZES)
    for size in FLOW_TABLE_SIZES:
        assert flow[size]["rules"] == int(size)
        for key in ("install_us_per_op", "modify_us_per_op", "lookup_us_per_op"):
            assert flow[size][key] > 0
    assert lpm["new_bytes_per_prefix"] < lpm["legacy_bytes_per_prefix"]
    # Only live prefixes are stored, so memory stays bounded through
    # churn; the slack is CPython not shrinking a dict that held more.
    assert lpm["new_memory_growth"] < 1.6
    if SMOKE:
        return

    # The O(1) pending_events counter is orders of magnitude faster.
    assert pending["speedup"] >= 50.0, pending


def test_dataplane_baseline_committed(benchmark):
    """The tracked perf-trajectory point exists and has the current shape."""

    def load():
        with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
            return json.load(handle)

    baseline = benchmark.pedantic(load, rounds=1, iterations=1)
    flow = baseline["flowmods"]
    assert sorted(flow) == sorted(FLOW_TABLE_SIZES)
    assert baseline["lpm"]["prefixes"] >= 100000
    if _RESULT:
        current = _RESULT["report"]["flowmods"]
        record_report(
            "Dataplane baseline (BENCH_dataplane.json) vs. this run",
            json.dumps(
                {
                    "baseline_lookup_us_per_op": {
                        size: flow[size]["lookup_us_per_op"] for size in FLOW_TABLE_SIZES
                    },
                    "current_lookup_us_per_op": {
                        size: current[size]["lookup_us_per_op"] for size in FLOW_TABLE_SIZES
                    },
                    "baseline_python": baseline.get("python"),
                },
                indent=2,
            ),
        )
