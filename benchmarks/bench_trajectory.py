#!/usr/bin/env python3
"""Append a dated entry to the data-plane perf trajectory.

``BENCH_trajectory.jsonl`` is the *per-PR perf trajectory* and this script
is its recording tool: it runs the fresh-subprocess dataplane measurement
(smoke sizes; the baseline's sizes under ``REPRO_FULL_SCALE=1``), reduces
the report to the headline absolute rates, and appends one dated JSON line.
CI runs it on every PR and uploads the line plus the full report as a
build artifact; comparing artifacts over time (or committed lines, when
regenerating the baseline) gives the trajectory.

Usage::

    python benchmarks/bench_trajectory.py [--output BENCH_trajectory.jsonl]
        [--report bench_report.json] [--from-baseline | --write-baseline]
        [--e2e-from-report BENCH_e2e.json]

``--write-baseline`` measures at full size (dataplane and telemetry
workers), rewrites the committed ``BENCH_dataplane.json`` and derives the
entry from it; ``--from-baseline`` skips the measurement and derives the
entry from the committed file.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import pathlib
import subprocess
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]

from benchmarks.conftest import (  # noqa: E402
    BASELINE_PATH,
    REPO_ROOT,
    load_baseline,
    run_bench_worker,
    write_json,
)
from benchmarks.test_bench_dataplane import CONFIG, FULL_CONFIG, run_worker  # noqa: E402
from benchmarks.test_bench_scale import (  # noqa: E402
    CONFIG as SCALE_CONFIG,
    run_worker as run_scale_worker,
)
from benchmarks.test_bench_telemetry import (  # noqa: E402
    FULL_CONFIG as TELEMETRY_FULL_CONFIG,
    WORKER as TELEMETRY_WORKER,
)

TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_trajectory.jsonl")


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            check=False,
        )
        return completed.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def count_src_lines() -> int:
    """``wc -l`` over ``src/repro/**/*.py``: the size of the system, which
    every simplicity PR reports next to its timings."""
    sources = pathlib.Path(REPO_ROOT, "src", "repro").rglob("*.py")
    return sum(source.read_bytes().count(b"\n") for source in sources)


def measure_baseline() -> dict:
    """The full-size report the committed ``BENCH_dataplane.json`` holds:
    the dataplane worker's sections plus the telemetry worker's."""
    report = run_worker(FULL_CONFIG)
    report["telemetry"] = run_bench_worker(TELEMETRY_WORKER, TELEMETRY_FULL_CONFIG)
    return report


def summarise(report: dict) -> dict:
    """The headline absolute rates tracked across PRs."""
    return {
        "events_fifo_per_s": report["events"]["fifo"]["singles_events_per_s"],
        "events_random_per_s": report["events"]["random"]["singles_events_per_s"],
        "lpm_lookup_per_s": report["lpm"]["lookup_ops_per_s"],
    }


def summarise_remote(report: dict) -> dict:
    """The remote-repoint headline numbers tracked across PRs.

    Sourced from the int-coded scale bench (10k/100k prefixes, 1M under
    ``REPRO_FULL_SCALE=1``): the grouped-vs-per-prefix restoration speedup
    at the largest benchmarked table — a ratio of two *live* paths — the
    flow-mod footprint proving the O(#groups) claim, and the peak RSS
    bound of the int-coded build.  Reports from the object-path worker
    (``REMOTE_REPORT``) are still accepted via ``--remote-from-report``;
    they carry no RSS measurement."""
    largest = report.get("largest")
    if not largest:
        return {}
    entry = {
        "remote_repoint_speedup": largest["speedup"],
        "remote_repoint_flow_mods": largest.get(
            "flow_mods", largest.get("grouped_flow_mods")
        ),
        "remote_repoint_groups": largest["groups"],
        "remote_repoint_table_size": largest["num_prefixes"],
    }
    if "rss_mb" in largest:
        entry["remote_repoint_rss_mb"] = largest["rss_mb"]
    return entry


def summarise_e2e(report: dict) -> dict:
    """``campaign_<workload>_<metric>`` fields from a ``benchmarks/e2e/run.py
    --out`` report: the median of every end-to-end metric (host times in
    nominal seconds) plus the exact ``sim_events`` / ``sim_convergence_ms``
    of each workload that simulates, so a trajectory line says what a
    campaign costs end to end and not only what the kernels do."""
    entry = {}
    for workload, result in sorted(report["workloads"].items()):
        prefix = "campaign_" + workload.replace("-", "_")
        for metric, summary in sorted(result["end_to_end"].items()):
            entry[f"{prefix}_{metric}"] = round(summary["median"], 4)
        entry[f"{prefix}_sim_convergence_ms"] = result["exact"]["sim_convergence_ms"]
        if "sim_events" in result["record"]:
            entry[f"{prefix}_sim_events"] = result["record"]["sim_events"]
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=TRAJECTORY_PATH,
                        help="trajectory file to append the dated entry to")
    parser.add_argument("--report", default=None,
                        help="also write the full measurement report here")
    parser.add_argument("--from-baseline", action="store_true",
                        help="derive the entry from the committed"
                             " BENCH_dataplane.json instead of measuring")
    parser.add_argument("--write-baseline", action="store_true",
                        help="measure at full size, rewrite the committed"
                             " BENCH_dataplane.json and derive the entry"
                             " from it")
    parser.add_argument("--from-report", default=None, metavar="PATH",
                        help="derive the entry from an existing measurement"
                             " report (e.g. one written via DATAPLANE_REPORT)"
                             " instead of measuring")
    parser.add_argument("--label", default=None,
                        help="free-form label stored with the entry")
    parser.add_argument("--skip-remote", action="store_true",
                        help="skip the remote-repoint scale measurement"
                             " (a few seconds of CPU at 10k/100k"
                             " prefixes; it runs by default, including"
                             " for --from-baseline entries)")
    parser.add_argument("--remote-from-report", default=None, metavar="PATH",
                        help="derive the remote-repoint fields from an"
                             " existing worker report (one written via"
                             " SCALE_REPORT, or a REMOTE_REPORT"
                             " object-path report) instead of"
                             " re-measuring")
    parser.add_argument("--e2e-from-report", default=None, metavar="PATH",
                        help="add campaign_<workload>_<metric> fields from an"
                             " end-to-end report written by"
                             " benchmarks/e2e/run.py --out")
    arguments = parser.parse_args()

    source = "committed-baseline"
    if arguments.write_baseline:
        print("Running the full-size dataplane and telemetry measurements...")
        report = measure_baseline()
        write_json(BASELINE_PATH, report)
        print(f"wrote {BASELINE_PATH}")
    elif arguments.from_baseline:
        report = load_baseline()
    else:
        if arguments.from_report:
            with open(arguments.from_report, "r", encoding="utf-8") as handle:
                report = json.load(handle)
        else:
            report = run_worker(CONFIG)
        source = "full" if report["config"] == FULL_CONFIG else "smoke"

    entry = {
        "date": datetime.date.today().isoformat(),
        # HEAD while the line is written: the PR's parent, because the line
        # is committed *with* the change it measures.
        "parent_sha": _git_sha(),
        "source": source,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "src_lines": count_src_lines(),
        **summarise(report),
    }
    if arguments.remote_from_report:
        with open(arguments.remote_from_report, "r", encoding="utf-8") as handle:
            entry.update(summarise_remote(json.load(handle)))
    elif not arguments.skip_remote:
        # The remote-repoint case is measured fresh even when the rest of
        # the entry comes from a committed report: the int-coded scale
        # curve (10k/100k, 1M under REPRO_FULL_SCALE=1) takes only a few
        # seconds of CPU and also records the RSS bound.
        entry.update(summarise_remote(run_scale_worker(SCALE_CONFIG)))
    if arguments.e2e_from_report:
        with open(arguments.e2e_from_report, "r", encoding="utf-8") as handle:
            entry.update(summarise_e2e(json.load(handle)))
    if arguments.label:
        entry["label"] = arguments.label
    with open(arguments.output, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True))
        handle.write("\n")
    if arguments.report:
        write_json(arguments.report, report)
    print(f"appended trajectory entry to {arguments.output}: {entry}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
