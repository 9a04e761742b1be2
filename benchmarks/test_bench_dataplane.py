"""Benchmark: the data-plane structures, in a fresh subprocess.

The event engine (events/s), the LPM table (ops/s, traced bytes per
prefix) and the flow table (us per install / modify / lookup at the rule
counts the system can reach: 7, 34, 902) are measured on the live classes
in absolute units, in a **fresh subprocess** with **gc disabled** inside
the timed sections (see docs/performance.md for the methodology).  Host
times and rates are printed next to the committed ``BENCH_dataplane.json``
— the parent's numbers — and never asserted; what is asserted repeats
exactly: structure, counts and the traced memory of the LPM table.
Regenerate the committed baseline with::

    python benchmarks/bench_trajectory.py --write-baseline

``REPRO_FULL_SCALE=1`` runs the baseline's own sizes (``FULL_CONFIG``).
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import (
    FULL_SCALE,
    REPO_ROOT,
    load_baseline,
    persist_report,
    record_report,
    run_bench_worker,
)

WORKER = os.path.join(REPO_ROOT, "benchmarks", "bench_dataplane_worker.py")

#: What the committed baseline and ``REPRO_FULL_SCALE=1`` measure.
FULL_CONFIG = {"events": 200000, "prefixes": 100000, "repeats": 3, "flow_table_ops": 20000}
SMOKE_CONFIG = {"events": 20000, "prefixes": 4000, "repeats": 1, "flow_table_ops": 2000}
CONFIG = FULL_CONFIG if FULL_SCALE else SMOKE_CONFIG
#: Rule counts of the flow-table section (the worker's FLOW_TABLE_SIZES).
FLOW_TABLE_SIZES = ("7", "34", "902")

#: Ceiling on the LPM table's traced bytes per stored prefix.  The
#: per-length hash measures 125 B at 4k prefixes and 129 B at 50k and at
#: 100k; a node-per-bit trie costs 700-1,100 B.
MAX_BYTES_PER_PREFIX = 200.0


def run_worker(config) -> dict:
    """Run the measurements in a fresh interpreter and parse its JSON."""
    return run_bench_worker(WORKER, config)


def check_shape(report) -> None:
    """The exact half of a dataplane report: sections, sizes, key sets."""
    flow = report["flowmods"]
    assert sorted(flow) == sorted(FLOW_TABLE_SIZES)
    for size in FLOW_TABLE_SIZES:
        assert flow[size]["rules"] == int(size)
        assert set(flow[size]) == {
            "rules", "ops", "install_us_per_op", "modify_us_per_op", "lookup_us_per_op"
        }
    for pattern in ("fifo", "random"):
        assert set(report["events"][pattern]) == {
            "events", "singles_events_per_s", "batch_events_per_s"
        }
        assert report["events"][pattern]["events"] == report["config"]["events"]
    assert report["lpm"]["prefixes"] == report["config"]["prefixes"]
    assert report["lpm"]["churn_ops"] == 2 * report["config"]["prefixes"]


_RESULT = {}


def test_dataplane_fastpath(benchmark):
    """Fresh-subprocess measurement of the event engine, LPM and flow table."""
    result = benchmark.pedantic(lambda: run_worker(CONFIG), rounds=1, iterations=1)
    _RESULT["report"] = result
    persist_report("DATAPLANE_REPORT", result)
    lpm = result["lpm"]
    for size in FLOW_TABLE_SIZES:
        benchmark.extra_info[f"flow_table_{size}_lookup_us"] = result["flowmods"][size][
            "lookup_us_per_op"
        ]
    benchmark.extra_info["events_fifo_per_s"] = result["events"]["fifo"]["singles_events_per_s"]
    benchmark.extra_info["lpm_lookup_per_s"] = lpm["lookup_ops_per_s"]
    benchmark.extra_info["lpm_bytes_per_prefix"] = lpm["bytes_per_prefix"]

    assert result["config"] == CONFIG
    check_shape(result)
    # Traced allocations repeat exactly for a given interpreter build.
    assert lpm["bytes_per_prefix"] <= MAX_BYTES_PER_PREFIX
    # Only live prefixes are stored, so memory stays bounded through
    # churn; the slack is CPython not shrinking a dict that held more.
    assert lpm["memory_growth"] < 1.6


def test_dataplane_baseline_committed(benchmark):
    """The tracked perf-trajectory point exists, has the current shape, and
    this run's numbers are printed next to it (report only)."""
    baseline = benchmark.pedantic(load_baseline, rounds=1, iterations=1)
    assert baseline["config"] == FULL_CONFIG
    check_shape(baseline)
    assert baseline["lpm"]["bytes_per_prefix"] <= MAX_BYTES_PER_PREFIX
    # Absolute units of the live tree only: nothing is a ratio against a
    # frozen copy any more.
    text = json.dumps(baseline)
    assert "legacy" not in text and "speedup" not in text
    assert set(baseline["telemetry"]) == {"config", "fib", "channel"}
    if _RESULT:
        current = _RESULT["report"]
        sections = ("events", "lpm", "flowmods")
        record_report(
            "Dataplane: committed BENCH_dataplane.json (parent, full size,"
            f" python {baseline.get('python')}) vs. this run",
            json.dumps(
                {
                    "baseline": {name: baseline[name] for name in sections},
                    "this_run": {name: current[name] for name in sections},
                },
                indent=2,
                sort_keys=True,
            ),
        )
