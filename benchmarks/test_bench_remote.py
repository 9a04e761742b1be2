"""Benchmark: grouped vs per-prefix full-table remote withdraw.

Runs :mod:`benchmarks.bench_remote_worker` in a **fresh subprocess** (see
docs/performance.md for why) and checks the PR's acceptance criteria on
the *simulated* — therefore deterministic — metrics:

* grouped failover pushes flow-mods proportional to the group count, not
  the prefix count, and sends the router zero per-prefix messages;
* at the largest table size, grouped data-plane restoration is at least
  5x faster than the per-prefix re-announcement path.

Default sizes keep the whole run under ~15 s of simulated work;
``REPRO_FULL_SCALE=1`` stretches the curve.  Because the asserted
quantities are simulated, they are checked at both sizes.
"""

from __future__ import annotations

import json
import os

from benchmarks.conftest import (
    FULL_SCALE,
    REPO_ROOT,
    persist_report,
    record_report,
    run_bench_worker,
)

WORKER = os.path.join(REPO_ROOT, "benchmarks", "bench_remote_worker.py")

CONFIG = {
    "sizes": [500, 1500, 3000] if FULL_SCALE else [200, 600],
    "flows": 8,
    "providers": 2,
    "seed": 1,
}

MIN_SPEEDUP = 5.0


def run_worker(config) -> dict:
    """Run the grouped-vs-per-prefix curve in a fresh interpreter."""
    return run_bench_worker(WORKER, config)


def test_remote_repoint_bench(benchmark):
    """Fresh-subprocess A/B of the remote failover paths."""
    result = benchmark.pedantic(lambda: run_worker(CONFIG), rounds=1, iterations=1)
    persist_report("REMOTE_REPORT", result)
    record_report(
        "Remote repoint (grouped vs per-prefix full-table withdraw,"
        " fresh subprocess)",
        json.dumps(result, indent=2, sort_keys=True),
    )
    largest = result["largest"]
    benchmark.extra_info["remote_repoint_speedup"] = largest["speedup"]
    benchmark.extra_info["grouped_flow_mods"] = largest["grouped_flow_mods"]

    for row in result["rows"]:
        assert row["recovered"], row
        if row["grouped"]:
            # O(#groups), not O(#prefixes): the flow-mod count is bounded
            # by the group count and the router hears nothing.
            assert row["flow_mods"] <= row["groups"], row
            assert row["router_messages"] == 0, row
        else:
            # The per-prefix baseline really does pay one message per
            # withdrawn prefix.
            assert row["router_messages"] >= row["num_prefixes"], row

    # Restoration flat in table size vs FIB-download growth.
    assert largest["speedup"] >= MIN_SPEEDUP, largest
    assert result["acceptance_ok"] is True


def test_grouped_restoration_is_flat_in_table_size():
    """The grouped path's restoration time must not grow with the table:
    derived from the deterministic worker output, so an in-process rerun
    is fine (simulated time is immune to heap state)."""
    from repro.experiments.remote_supercharge import RemoteSuperchargeExperiment

    experiment = RemoteSuperchargeExperiment(
        prefix_counts=[100, 400], monitored_flows=6, seed=1
    )
    experiment.run()
    grouped = [row for row in experiment.rows if row.grouped]
    baseline = [row for row in experiment.rows if not row.grouped]
    # Grouped: flat (one flow-mod batch regardless of size).
    assert abs(grouped[0].max_ms - grouped[1].max_ms) < 5.0
    # Per-prefix: grows roughly with per-entry FIB latency.
    assert baseline[1].max_ms > baseline[0].max_ms + 50.0
