"""Benchmark regenerating the §2 backup-group count analysis.

The paper argues the number of backup groups is bounded by n·(n−1) for a
router with n peers (90 groups for 10 peers) regardless of the table size.
This benchmark fills a table announced by an increasing number of peers and
reports the observed group counts next to the bound.
"""

from __future__ import annotations

from benchmarks.conftest import record_report
from repro.experiments.backup_group_analysis import backup_group_counts
from repro.stats import format_table

PEER_COUNTS = (2, 3, 5, 10)


def test_backup_group_counts(benchmark):
    """Observed backup groups vs the n·(n−1) bound."""

    def run():
        return backup_group_counts(peer_counts=PEER_COUNTS, num_prefixes=3_000)

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [
            str(entry.num_peers),
            str(entry.num_prefixes),
            str(entry.observed_groups),
            str(entry.theoretical_bound),
        ]
        for entry in results
    ]
    table = format_table(["peers", "prefixes", "observed groups", "n*(n-1) bound"], rows)
    record_report("Backup-group count analysis (paper section 2)", table)
    for entry in results:
        benchmark.extra_info[f"peers_{entry.num_peers}"] = entry.observed_groups
        assert entry.within_bound
    ten_peers = [entry for entry in results if entry.num_peers == 10][0]
    assert ten_peers.theoretical_bound == 90
