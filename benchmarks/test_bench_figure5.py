"""Benchmark regenerating Figure 5 (convergence time vs number of prefixes).

For every (prefix count, mode) cell the benchmark builds the Figure 4 lab,
loads the synthetic full table, then fails the primary provider three times
with 100 monitored flows — the paper's methodology (3 × 100 = 300 samples
per box).  The box statistics, in simulated seconds, are attached to
``extra_info`` and printed in the reproduction report, next to the value
the paper reports for the same x-axis point.

Default scale: the reduced sweep from ``DEFAULT_PREFIX_COUNTS``.  Set
``REPRO_FULL_SCALE=1`` to run the paper's full 1 k – 500 k axis (slow).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_report
from repro.experiments.figure5 import (
    PAPER_NON_SUPERCHARGED_MAX_S,
    PAPER_SUPERCHARGED_MAX_S,
    Figure5Experiment,
    active_prefix_counts,
)

PREFIX_COUNTS = list(active_prefix_counts())
MODES = (False, True)
_ROWS = []


def _cell_id(value):
    if isinstance(value, bool):
        return "supercharged" if value else "standalone"
    return f"{value}pfx"


@pytest.mark.parametrize("supercharged", MODES, ids=_cell_id)
@pytest.mark.parametrize("num_prefixes", PREFIX_COUNTS, ids=_cell_id)
def test_figure5_cell(benchmark, num_prefixes, supercharged):
    """One box of Figure 5."""
    experiment = Figure5Experiment(
        prefix_counts=[num_prefixes],
        repetitions=3,
        monitored_flows=100,
    )

    def run_cell():
        return experiment.run_cell(num_prefixes, supercharged)

    row = benchmark.pedantic(run_cell, rounds=1, iterations=1)
    _ROWS.append(row)
    stats = row.stats
    benchmark.extra_info["num_prefixes"] = num_prefixes
    benchmark.extra_info["mode"] = "supercharged" if supercharged else "standalone"
    benchmark.extra_info["median_s"] = round(stats.median, 4)
    benchmark.extra_info["p95_s"] = round(stats.p95, 4)
    benchmark.extra_info["max_s"] = round(stats.maximum, 4)
    benchmark.extra_info["samples"] = stats.count

    if supercharged:
        # Headline claim: the supercharged router converges within ~150 ms
        # irrespective of the number of prefixes.
        assert stats.maximum < 2 * PAPER_SUPERCHARGED_MAX_S
    else:
        # The standalone router's convergence must grow with the FIB size and
        # sit in the same order of magnitude as the paper's measurement for
        # the points that are on the paper's x-axis.
        paper = PAPER_NON_SUPERCHARGED_MAX_S.get(num_prefixes)
        if paper is not None:
            assert 0.2 * paper < stats.maximum < 5 * paper


def test_figure5_report(benchmark):
    """Aggregate the sweep into the Figure 5 table and check its shape."""

    def build_report():
        experiment = Figure5Experiment(prefix_counts=PREFIX_COUNTS, repetitions=1)
        experiment.rows = list(_ROWS)
        if not experiment.rows:
            experiment.rows = experiment.run()
        return experiment.report()

    report = benchmark.pedantic(build_report, rounds=1, iterations=1)
    record_report("Figure 5 — convergence time vs number of prefixes", report)
    standalone = sorted(
        (row for row in _ROWS if not row.supercharged), key=lambda row: row.num_prefixes
    )
    supercharged = [row for row in _ROWS if row.supercharged]
    if len(standalone) >= 2:
        # Linear growth: the largest table converges slower than the smallest.
        assert standalone[-1].stats.maximum > standalone[0].stats.maximum
    if supercharged and standalone:
        worst_supercharged = max(row.stats.maximum for row in supercharged)
        worst_standalone = max(row.stats.maximum for row in standalone)
        # The paper reports a 900x gap at 500 k prefixes; at reduced scale the
        # ratio is smaller but must still be at least an order of magnitude.
        assert worst_standalone / worst_supercharged > 10
