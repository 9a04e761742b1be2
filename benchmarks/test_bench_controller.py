"""Benchmark regenerating the controller micro-benchmark (§4, last paragraph).

The paper feeds its Python controller 2 × 500 k BGP updates from two peers
and reports per-update processing time (99th percentile 125 ms, worst case
0.8 s).  This benchmark measures the same pipeline — decision process,
Listing 1 backup-group computation, next-hop rewrite — per update.

The default workload is 2 × 25 k updates and asserts only the work done —
updates processed, groups created, announcements relayed — which repeats
exactly; the processing times are printed.  ``REPRO_FULL_SCALE=1`` runs
the paper's 2 × 500 k and also holds the times to the paper's figures.

The cyclic collector is off during the timed run, as in every other
microbench here (docs/performance.md, methodology rule 3).  At 2 × 500 k
the heap holds ~10 M live objects and a gen-2 pass over them *is* the
worst-case sample otherwise: measured on the parent tree, 18 passes, the
longest 1.42 s (0.85 s with the pre-built workload frozen), against
0.16 s for the slowest update itself — a dict resize.
"""

from __future__ import annotations

import gc

from benchmarks.conftest import FULL_SCALE, record_report
from repro.experiments.controller_bench import (
    PAPER_P99_S,
    PAPER_WORST_S,
    ControllerMicrobench,
)


UPDATES_PER_PEER = 500_000 if FULL_SCALE else 25_000


def _run_without_gc(*benches):
    gc.collect()
    gc.disable()
    try:
        return [bench.run() for bench in benches]
    finally:
        gc.enable()


def test_controller_update_processing(benchmark):
    """Per-update processing time of the backup-group controller."""
    bench = ControllerMicrobench(updates_per_peer=UPDATES_PER_PEER, seed=1)

    (result,) = benchmark.pedantic(lambda: _run_without_gc(bench), rounds=1, iterations=1)
    benchmark.extra_info["updates_processed"] = result.updates_processed
    benchmark.extra_info["median_us"] = round(result.stats.median * 1e6, 2)
    benchmark.extra_info["p99_us"] = round(result.p99 * 1e6, 2)
    benchmark.extra_info["worst_ms"] = round(result.stats.maximum * 1e3, 3)
    benchmark.extra_info["paper_p99_ms"] = PAPER_P99_S * 1e3
    benchmark.extra_info["paper_worst_ms"] = PAPER_WORST_S * 1e3
    record_report(
        "Controller micro-benchmark — per-update processing time",
        bench.report(result),
    )
    assert result.updates_processed == 2 * UPDATES_PER_PEER
    # Two peers announcing the same table: one backup group, and the
    # router hears about every prefix at least once.
    assert result.groups_created == 1
    assert result.announcements_to_router >= UPDATES_PER_PEER
    if FULL_SCALE:
        # Our from-scratch pipeline must beat the paper's unoptimised prototype.
        assert result.p99 < PAPER_P99_S
        assert result.stats.maximum < PAPER_WORST_S


def test_controller_processing_scales_linearly(benchmark):
    """Total processing cost grows linearly with the feed size (no blow-up)."""
    small = ControllerMicrobench(updates_per_peer=2_000, seed=3)
    large = ControllerMicrobench(updates_per_peer=8_000, seed=3)

    small_result, large_result = benchmark.pedantic(
        lambda: _run_without_gc(small, large), rounds=1, iterations=1
    )
    small_total = small_result.stats.mean * small_result.updates_processed
    large_total = large_result.stats.mean * large_result.updates_processed
    benchmark.extra_info["small_total_s"] = round(small_total, 4)
    benchmark.extra_info["large_total_s"] = round(large_total, 4)
    # 4x the updates is 4x the relayed work and no more groups.
    assert large_result.updates_processed == 4 * small_result.updates_processed
    assert large_result.announcements_to_router == 4 * small_result.announcements_to_router
    assert large_result.groups_created == small_result.groups_created
    if FULL_SCALE:
        # ... and should cost roughly 4x the time (generous factor-3 slack
        # to absorb interpreter noise), not quadratically more.
        assert large_total < small_total * 12
