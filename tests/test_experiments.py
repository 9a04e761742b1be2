"""Tests for the experiment harnesses (statistics, Figure 5, micro-bench,
backup-group analysis, ablations) at reduced scale."""

import pytest

from repro.experiments.ablations import compare_fib_designs, sweep_bfd_interval
from repro.experiments.backup_group_analysis import backup_group_counts
from repro.experiments.controller_bench import ControllerMicrobench
from repro.experiments.figure5 import (
    DEFAULT_PREFIX_COUNTS,
    FULL_SCALE_PREFIX_COUNTS,
    Figure5Experiment,
    active_prefix_counts,
)
from repro.stats import BoxStats, format_table, percentile


class TestStats:
    def test_percentile_interpolation(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 4.0
        assert percentile(samples, 0.5) == pytest.approx(2.5)

    def test_percentile_single_sample(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_box_stats_fields(self):
        stats = BoxStats.from_samples([1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats.count == 5
        assert stats.minimum == 1.0
        assert stats.maximum == 100.0
        assert stats.median == 3.0
        assert stats.q1 <= stats.median <= stats.q3
        assert stats.p5 <= stats.q1
        assert stats.p95 >= stats.q3
        assert stats.mean == pytest.approx(22.0)

    def test_box_stats_empty_rejected(self):
        with pytest.raises(ValueError):
            BoxStats.from_samples([])

    def test_box_stats_scaling(self):
        stats = BoxStats.from_samples([0.1, 0.2, 0.3])
        milli = stats.as_milliseconds()
        assert milli.median == pytest.approx(stats.median * 1e3)
        assert milli.count == stats.count

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "333" in lines[3]


class TestFigure5:
    def test_default_counts_are_reduced_scale(self):
        # The default sweep is the low end of the paper's own x-axis.
        assert DEFAULT_PREFIX_COUNTS == FULL_SCALE_PREFIX_COUNTS[:3] == (1_000, 5_000, 10_000)
        assert active_prefix_counts() == DEFAULT_PREFIX_COUNTS

    def test_full_scale_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL_SCALE", "1")
        assert active_prefix_counts() == FULL_SCALE_PREFIX_COUNTS

    def test_run_cell_produces_box_stats(self):
        experiment = Figure5Experiment(
            prefix_counts=[50], repetitions=1, monitored_flows=5)
        row = experiment.run_cell(50, supercharged=True)
        assert row.stats.count == 5
        assert row.stats.maximum < 1.0
        assert row.supercharged

    def test_small_sweep_preserves_paper_shape(self):
        experiment = Figure5Experiment(
            prefix_counts=[100, 300], repetitions=1, monitored_flows=5)
        rows = experiment.run()
        assert len(rows) == 4
        standalone = {row.num_prefixes: row for row in rows if not row.supercharged}
        supercharged = {row.num_prefixes: row for row in rows if row.supercharged}
        # Standalone convergence grows with the table size...
        assert standalone[300].stats.maximum > standalone[100].stats.maximum
        # ...while the supercharged router stays flat and far below it.
        assert supercharged[300].stats.maximum < 0.2
        assert supercharged[300].stats.maximum < standalone[300].stats.minimum
        report = experiment.report()
        assert "supercharged" in report and "standalone" in report

class TestControllerMicrobench:
    def test_processes_two_feeds_and_reports_distribution(self):
        bench = ControllerMicrobench(updates_per_peer=500, seed=2)
        result = bench.run()
        assert result.updates_processed == 1000
        assert result.groups_created >= 1
        assert result.announcements_to_router >= 500
        assert result.stats.maximum >= result.stats.median > 0
        assert result.p99 >= result.stats.median
        report = bench.report(result)
        assert "p99" in report

    def test_workload_has_same_prefixes_per_peer(self):
        bench = ControllerMicrobench(updates_per_peer=50, seed=2)
        stream_a, stream_b = bench.build_workload()
        assert [u.prefix for u in stream_a] == [u.prefix for u in stream_b]
        assert stream_a[0].attributes.next_hop != stream_b[0].attributes.next_hop

    def test_processing_is_well_under_paper_budget(self):
        # The paper reports p99 = 125 ms on their unoptimised controller; our
        # per-update processing must be orders of magnitude below that.
        result = ControllerMicrobench(updates_per_peer=300, seed=1).run()
        assert result.p99 < 0.125


class TestBackupGroupAnalysis:
    def test_counts_respect_theoretical_bound(self):
        results = backup_group_counts(peer_counts=(2, 3, 5), num_prefixes=300)
        assert len(results) == 3
        for entry in results:
            assert entry.within_bound
            assert entry.observed_groups >= 1
            assert entry.theoretical_bound == entry.num_peers * (entry.num_peers - 1)

    def test_two_peers_give_at_most_two_groups(self):
        entry = backup_group_counts(peer_counts=(2,), num_prefixes=200)[0]
        assert entry.observed_groups <= 2


class TestAblations:
    def test_bfd_interval_sweep_is_monotone(self):
        points = sweep_bfd_interval(intervals=(0.01, 0.1), num_prefixes=40, monitored_flows=4)
        assert len(points) == 2
        assert points[0].max_convergence < points[1].max_convergence

    def test_fib_design_comparison_ranks_flat_worst(self):
        points = compare_fib_designs(num_prefixes=150, monitored_flows=4)
        by_label = {point.label: point for point in points}
        flat = by_label["flat-fib (standalone)"]
        pic = by_label["hierarchical-fib (PIC)"]
        supercharged = by_label["supercharged"]
        assert flat.max_convergence > pic.max_convergence
        assert flat.max_convergence > supercharged.max_convergence
        assert supercharged.max_convergence < 0.2


class TestDetectionExperiment:
    def test_grid_shape_and_detection_split(self):
        from repro.experiments.detection import DetectionExperiment

        experiment = DetectionExperiment(
            num_prefixes=40, monitored_flows=4, seed=3
        )
        rows = experiment.run()
        assert len(rows) == 4
        by_cell = {(row["fault"], row["supercharged"]): row for row in rows}
        assert len(by_cell) == 4
        for (fault, _mode), row in by_cell.items():
            assert row["recovered"]
            # Local faults ride on BFD; remote faults fall back to BGP.
            assert row["detection_path"] == ("bfd" if fault == "local" else "bgp")
        # Only supercharged cells see a controller push.
        assert by_cell[("local", True)]["push_ms"] is not None
        assert by_cell[("local", False)]["push_ms"] is None
        report = experiment.report()
        assert "detected via" in report and "remote" in report

    def test_rows_are_deterministic(self):
        from repro.experiments.detection import DetectionExperiment

        first = DetectionExperiment(num_prefixes=25, monitored_flows=3, seed=5).run()
        second = DetectionExperiment(num_prefixes=25, monitored_flows=3, seed=5).run()
        assert first == second
