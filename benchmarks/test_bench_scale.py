"""Benchmark: full-DFZ-scale remote failover on the int-coded path.

Runs :mod:`benchmarks.bench_scale_worker` in a **fresh subprocess** (see
docs/performance.md for why) at 10k and 100k prefixes — three orders of
magnitude past the object-path remote bench — and checks the scale
acceptance criteria on CPU-time and RSS measurements:

* flow-mods stay flat in the *group* count at every table size (the
  O(#groups) claim, now demonstrated at 100k prefixes);
* peak RSS stays bounded: the int-coded build carries 100k prefixes in
  well under the ceiling asserted here, and the sharded build's worker
  processes stay smaller still;
* the sharded (multiprocessing) build agrees exactly with the
  single-process counters — same prefixes, groups, flow-mods, coverage;
* under ``REPRO_FULL_SCALE=1`` only: absorbing the full-table remote
  withdrawal through the int-coded pipeline is at least 5x cheaper in CPU
  than the per-prefix object path at the largest size (the baseline is
  size-capped and extrapolated linearly, which under-counts its true
  heap-pressure cost) — a ratio of two live paths, but a host-time one.

``REPRO_FULL_SCALE=1`` also extends the curve to 1M prefixes (about a
minute of CPU).  The absolute RSS ceilings are generous enough for
allocator variance across Python builds.
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

WORKER = os.path.join(REPO_ROOT, "benchmarks", "bench_scale_worker.py")

CONFIG = {
    "sizes": [10_000, 100_000],
    "backups": 8,
    "seed": 7,
    "perprefix_cap": 20_000,
    "shards": 4,
    "shard_workers": 2,
    "one_million": FULL_SCALE,
}

MIN_SPEEDUP = 5.0
#: RSS ceilings, MiB: far above the measured footprint (~45 MiB at 100k,
#: ~420 MiB at 1M) but low enough to catch an accidental return to
#: object-per-route storage, which costs an order of magnitude more.
RSS_CEILING_MB = {10_000: 150.0, 100_000: 300.0, 1_000_000: 1500.0}


def run_worker(config) -> dict:
    """Run the scale curve in a fresh interpreter."""
    return run_bench_worker(WORKER, config)


def test_scale_remote_repoint_bench(benchmark):
    """Fresh-subprocess scale measurement of the int-coded failover."""
    result = benchmark.pedantic(lambda: run_worker(CONFIG), rounds=1, iterations=1)
    persist_report("SCALE_REPORT", result)
    record_report(
        "Full-DFZ scale: int-coded remote failover (fresh subprocess)",
        json.dumps(result, indent=2, sort_keys=True),
    )
    largest = result["largest"]
    benchmark.extra_info["scale_speedup"] = largest["speedup"]
    benchmark.extra_info["scale_rss_mb"] = largest["rss_mb"]

    flow_mod_counts = set()
    for row in result["rows"]:
        grouped = row["grouped"]
        size = grouped["num_prefixes"]
        # O(#groups): the whole-table failover costs one flow-mod per
        # group no matter how many prefixes the table holds.
        assert grouped["flow_mods"] == grouped["groups"], grouped
        assert grouped["fallback_prefixes"] == 0, grouped
        assert grouped["prefixes_covered"] == size, grouped
        # After the primary drain each prefix keeps exactly its backup.
        assert grouped["rib_routes"] == size, grouped
        assert grouped["peak_rss_mb"] <= RSS_CEILING_MB[size], grouped
        flow_mod_counts.add(grouped["flow_mods"])
        # The per-prefix path really does emit one router message per
        # measured prefix.
        perprefix = row["perprefix"]
        assert perprefix["router_messages"] >= perprefix["measured_prefixes"]
    # Flat across sizes, not merely proportional within each size.
    assert len(flow_mod_counts) == 1, flow_mod_counts

    if FULL_SCALE:
        assert largest["speedup"] >= MIN_SPEEDUP, largest


def test_scale_sharded_build_matches_single_process():
    """The pooled sharded build must land on exactly the same table as
    the in-process build: same prefixes, groups, flow-mods, coverage —
    and its worker RSS must stay within the per-shard ceiling."""
    config = dict(CONFIG)
    config["sizes"] = [20_000]
    config["one_million"] = False
    result = run_worker(config)
    grouped = result["rows"][-1]["grouped"]
    sharded = result["sharded"]
    assert sharded is not None
    totals = sharded["totals"]
    assert totals["prefixes_loaded"] == grouped["num_prefixes"]
    assert totals["groups"] == grouped["groups"]
    assert totals["flow_mods"] == grouped["flow_mods"]
    assert totals["prefixes_covered"] == grouped["prefixes_covered"]
    assert totals["fallback_prefixes"] == 0
    # Each worker holds one shard, not the table.
    assert sharded["shard_rss_mb"] <= RSS_CEILING_MB[100_000]
