"""Tests for the causal provenance layer, exporters and sim profiler.

Unit coverage for :mod:`repro.telemetry.causal` (the episode book: outage
contexts, stage marks, restoration chains), the :class:`Span`
context-manager protocol, the
bucket-interpolated histogram quantiles, the OpenMetrics / report
exporters and :class:`SimProfiler` — plus scenario-level integration:
the remote-withdraw chain count matches the withdrawn-prefix count, the
causal record fields stay byte-identical across serial / pooled / rerun
campaigns, and the JSONL trace sink captures every emitted event beyond
the ring capacity.
"""

import io
import json
import os

import pytest

from repro.scenarios import expand_grid, execute_scenario, get_preset
from repro.scenarios.campaign import CampaignRunner
from repro.stats import quantile_from_sorted
from repro.telemetry import STAGES, Telemetry
from repro.telemetry.causal import KIND_GROUP, KIND_PREFIX, CausalContext
from repro.telemetry.export import (
    WALLCLOCK_METRICS,
    build_campaign_report,
    render_openmetrics,
    render_report_html,
    report_to_json,
)
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.profile import SimProfiler, sample_shard_gauges
from repro.telemetry.trace import TRACE_CAPACITY


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Histogram quantiles
# ----------------------------------------------------------------------

class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        histogram = Histogram("h", [1.0, 2.0])
        assert histogram.quantile(0.5) is None
        snapshot = histogram.to_dict()
        assert snapshot["p50"] is None
        assert snapshot["p95"] is None
        assert snapshot["p99"] is None

    def test_out_of_range_quantile_rejected(self):
        histogram = Histogram("h", [1.0])
        with pytest.raises(ValueError):
            histogram.quantile(1.5)
        with pytest.raises(ValueError):
            histogram.quantile(-0.1)

    def test_interpolation_within_one_bucket(self):
        histogram = Histogram("h", [0.0, 10.0])
        for value in (1.0, 3.0, 5.0, 7.0):
            histogram.observe(value)
        # All four samples land in (0, 10]: p50 interpolates to the
        # bucket's midpoint, 10 * (2/4) = 5.
        assert histogram.quantile(0.5) == 5.0

    def test_estimate_clamped_to_observed_range(self):
        histogram = Histogram("h", [100.0])
        histogram.observe(2.0)
        histogram.observe(3.0)
        # Interpolating inside (min, 100] would exceed the observed max.
        assert histogram.quantile(0.99) == 3.0
        assert histogram.quantile(0.0) == 2.0

    def test_overflow_bucket_returns_max(self):
        histogram = Histogram("h", [1.0])
        histogram.observe(0.5)
        histogram.observe(50.0)
        assert histogram.quantile(0.99) == 50.0

    def test_to_dict_quantiles_populated(self):
        histogram = Histogram("h", [1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 1.6, 3.0):
            histogram.observe(value)
        snapshot = histogram.to_dict()
        assert snapshot["p50"] is not None
        assert snapshot["min"] <= snapshot["p50"] <= snapshot["max"]
        assert snapshot["p50"] <= snapshot["p95"] <= snapshot["p99"]

    def test_quantile_from_sorted_interpolates(self):
        values = [0.0, 10.0]
        assert quantile_from_sorted(values, 0.5) == 5.0
        assert quantile_from_sorted(values, 0.0) == 0.0
        assert quantile_from_sorted(values, 1.0) == 10.0
        with pytest.raises(ValueError):
            quantile_from_sorted([], 0.5)


# ----------------------------------------------------------------------
# The episode book
# ----------------------------------------------------------------------

class TestCausalContext:
    def test_ids_are_minted_in_order(self):
        causal = CausalContext()
        assert causal.current_id is None
        assert causal.open_outage(1.0, kind="link_down", provider=0) == "outage-1"
        assert causal.open_outage(2.0) == "outage-2"
        assert causal.current_id == "outage-2"
        [first] = causal.outages("outage-1")
        assert first.kind == "link_down"
        assert len(causal.outages()) == 2
        assert causal.outages("outage-9") == []

    def test_context_export_shape(self):
        causal = CausalContext()
        causal.open_outage(1.5, kind="remote_withdraw", provider=1)
        [outage] = causal.outages()
        assert outage.to_dict() == {
            "outage": "outage-1",
            "opened_at_s": 1.5,
            "kind": "remote_withdraw",
            "provider": 1,
        }


class TestConvergenceLedger:
    """Restoration chains, folded by the book per outage."""

    def test_restores_before_any_outage_are_ignored(self):
        book = CausalContext()
        book.note_restored("10.0.0.0/24", 0.5)
        assert book.chains() == []
        book.open_outage(1.0)
        book.note_restored("10.0.0.0/24", 1.25)
        assert len(book.chains()) == 1

    def test_first_restore_wins(self):
        book = CausalContext()
        book.open_outage(1.0)
        book.note_restored("10.0.0.0/24", 1.1)
        book.note_restored("10.0.0.0/24", 1.9)
        [chain] = book.chains()
        assert chain["restore_ms"] == pytest.approx(100.0)

    def test_chains_carry_stage_offsets(self):
        book = CausalContext()
        book.open_outage(0.0)
        book.mark_stage("detection.bfd", 0.01)  # detect observed 10ms in
        book.note_restored("10.0.0.0/24", 0.05)
        [chain] = book.chains()
        assert chain["detect_ms"] == pytest.approx(10.0)
        assert chain["restore_ms"] == pytest.approx(50.0)
        assert chain["decide_ms"] is None

    def test_kind_separation_and_cdf(self):
        book = CausalContext()
        book.open_outage(0.0)
        book.note_restored("aa:bb", 0.01, kind=KIND_GROUP)
        for index in range(4):
            book.note_restored(f"10.0.{index}.0/24", 0.1 + index * 0.1)
        assert len(book.chains(kind=KIND_PREFIX)) == 4
        assert len(book.chains(kind=KIND_GROUP)) == 1
        cdf = book.restoration_cdf()
        assert [fraction for _, fraction in cdf] == [0.25, 0.5, 0.75, 1.0]
        deciles = book.restoration_deciles_ms()
        assert len(deciles) == 11
        assert deciles[0] == pytest.approx(100.0)
        assert deciles[10] == pytest.approx(400.0)
        [summary] = book.outage_summaries()
        assert summary["chains"] == 5
        assert summary["prefixes_restored"] == 4
        assert summary["groups_restored"] == 1
        assert summary["first_restore_ms"] == pytest.approx(10.0)

    def test_restored_formats_nothing_until_chains_are_folded(self):
        from repro.net.addresses import IPv4Prefix

        formatted = []

        class CountingPrefix(IPv4Prefix):
            def __str__(self):
                formatted.append(int(self))
                return super().__str__()

        telemetry = Telemetry(FakeClock())
        telemetry.causal.open_outage(0.0)
        # Written out of string order: 10.0.10.0/24 sorts before 10.0.9.0/24.
        for text in ("10.0.9.0/24", "10.0.10.0/24", "10.0.9.0/24"):
            telemetry.restored(CountingPrefix(text))
        [summary] = telemetry.causal.outage_summaries()
        assert summary["prefixes_restored"] == 2
        assert len(telemetry.causal.restoration_latencies_ms()) == 2
        assert formatted == []
        subjects = [chain["subject"] for chain in telemetry.causal.chains()]
        assert subjects == ["10.0.10.0/24", "10.0.9.0/24"]
        assert len(formatted) == 2

    def test_ambient_stamping_only_while_outage_open(self):
        clock = FakeClock()
        telemetry = Telemetry(clock)
        span = telemetry.span("remote.holddown")
        before = telemetry.emit("steady.state")
        assert "outage" not in before.fields
        telemetry.causal.open_outage(0.0)
        stamped = telemetry.emit("fib.apply_first")
        assert stamped.fields["outage"] == "outage-1"
        explicit = telemetry.emit("lab.episode", outage="outage-override")
        assert explicit.fields["outage"] == "outage-override"
        # A span carries the outage open when it *ends*.
        clock.now = 0.002
        assert span.end().fields == {"duration": 0.002, "outage": "outage-1"}


# ----------------------------------------------------------------------
# OpenMetrics exporter
# ----------------------------------------------------------------------

class TestOpenMetrics:
    def _registry(self):
        metrics = MetricsRegistry()
        metrics.counter("fib.writes").inc(41)
        gauge = metrics.gauge("queue.depth")
        gauge.set(3)
        gauge.set(1)
        histogram = metrics.histogram("install.ms", [1.0, 10.0])
        histogram.observe(0.5)
        histogram.observe(5.0)
        histogram.observe(50.0)
        metrics.gauge("process.peak_rss_mb").set(123)
        return metrics

    def test_rendering_shape(self):
        text = render_openmetrics(self._registry())
        assert "repro_fib_writes_total 41\n" in text
        assert "repro_queue_depth 1\n" in text
        assert "repro_queue_depth_high_water 3\n" in text
        assert 'repro_install_ms_bucket{le="1"} 1\n' in text
        assert 'repro_install_ms_bucket{le="10"} 2\n' in text
        assert 'repro_install_ms_bucket{le="+Inf"} 3\n' in text
        assert "repro_install_ms_sum 55.5\n" in text
        assert "repro_install_ms_count 3\n" in text
        assert text.endswith("# EOF\n")

    def test_wallclock_metrics_excluded_by_default(self):
        text = render_openmetrics(self._registry())
        assert "peak_rss" not in text
        assert WALLCLOCK_METRICS == ("process.peak_rss_mb",)
        included = render_openmetrics(self._registry(), exclude=())
        assert "repro_process_peak_rss_mb 123\n" in included

    def test_rendering_is_byte_stable(self):
        assert render_openmetrics(self._registry()) == render_openmetrics(
            self._registry()
        )


# ----------------------------------------------------------------------
# Campaign report
# ----------------------------------------------------------------------

class TestCampaignReport:
    def _entry(self):
        return {
            "record": {
                "name": "remote-withdraw",
                "failures": ["remote_withdraw"],
                "seed": 1,
                "stage_detect_ms": 0.03,
                "stage_decide_ms": 0.05,
                "stage_push_ms": None,
                "stage_install_ms": 375.0,
            },
            "outages": [
                {
                    "outage": "outage-1",
                    "kind": "remote_withdraw",
                    "chains": 3,
                    "prefixes_restored": 3,
                    "groups_restored": 0,
                    "detect_ms": 0.03,
                    "decide_ms": 0.05,
                    "push_ms": None,
                    "install_ms": 375.0,
                    "first_restore_ms": 375.1,
                    "last_restore_ms": 380.4,
                }
            ],
            "chains": [],
            "restoration_cdf": [[375.1, 0.333333], [377.7, 0.666667], [380.4, 1.0]],
            "profile": None,
        }

    def test_report_totals(self):
        report = build_campaign_report([self._entry(), self._entry()], title="t")
        assert report["scenario_count"] == 2
        assert report["total_chains"] == 6
        assert report["total_prefix_chains"] == 6

    def test_json_is_deterministic(self):
        first = report_to_json(build_campaign_report([self._entry()]))
        second = report_to_json(build_campaign_report([self._entry()]))
        assert first == second
        json.loads(first)  # valid JSON

    def test_html_is_self_contained(self):
        page = render_report_html(build_campaign_report([self._entry()]))
        assert page.startswith("<!DOCTYPE html>")
        assert "<svg" in page  # inline waterfall + CDF
        assert "outage-1" in page
        assert "remote-withdraw/remote_withdraw seed=1" in page
        assert "http" not in page  # no external assets

    def test_empty_report_renders(self):
        page = render_report_html(build_campaign_report([]))
        assert "No scenarios." in page
        assert "No restoration chains recorded." in page


# ----------------------------------------------------------------------
# Sim profiler
# ----------------------------------------------------------------------

class TestSimProfiler:
    def test_counts_and_time_attribution(self):
        profiler = SimProfiler()
        profiler.observe("a", 1.0)
        profiler.observe("b", 1.5)
        profiler.observe("a", 1.5)  # same instant: no time attributed
        profiler.observe("b", 2.0)
        snapshot = profiler.to_dict()
        assert snapshot["events_observed"] == 4
        assert snapshot["handlers"]["a"]["count"] == 2
        assert snapshot["handlers"]["a"]["sim_time_s"] == 1.0
        assert snapshot["handlers"]["b"]["sim_time_s"] == 1.0
        assert snapshot["sim_time_total_s"] == 2.0
        assert snapshot["handlers"]["a"]["share"] == 0.5

    def test_unnamed_events_are_bucketed(self):
        profiler = SimProfiler()
        profiler.observe("", 1.0)
        assert list(profiler.to_dict()["handlers"]) == ["(unnamed)"]

    def test_shard_gauges(self):
        metrics = MetricsRegistry()
        sample_shard_gauges(metrics, [(0, 10, 2, 12), (1, 30, 4, 34)])
        snapshot = metrics.to_dict()
        assert snapshot["shard.0.prefixes"]["value"] == 10
        assert snapshot["shard.1.flow_mods"]["value"] == 34
        assert snapshot["shard.prefixes_min"]["value"] == 10
        assert snapshot["shard.prefixes_max"]["value"] == 30
        sample_shard_gauges(None, [(0, 1, 1, 1)])  # no-op without a registry


# ----------------------------------------------------------------------
# Scenario integration
# ----------------------------------------------------------------------

def _withdraw_spec(**overrides):
    defaults = dict(num_prefixes=40, monitored_flows=5)
    defaults.update(overrides)
    return get_preset("remote-withdraw", **defaults)


class TestScenarioIntegration:
    def test_remote_withdraw_chain_count_matches_withdrawn_prefixes(self):
        spec = _withdraw_spec()
        record, lab = execute_scenario(spec)
        fraction = spec.failures[0].prefix_fraction
        withdrawn = max(1, int(round(fraction * spec.num_prefixes)))
        [summary] = lab.detection.outage_summaries()
        assert summary["kind"] == "remote_withdraw"
        assert summary["prefixes_restored"] == withdrawn
        assert record["outage_chains"] == [summary]
        cdf = lab.detection.restoration_cdf("outage-1")
        assert len(cdf) == withdrawn
        assert cdf[-1][1] == 1.0
        assert record["restoration_cdf_ms"][0] == cdf[0][0]
        assert record["restoration_cdf_ms"][10] == cdf[-1][0]

    @pytest.mark.parametrize("preset", ["figure4", "figure4-standalone", "ris-churn"])
    def test_book_answers_what_the_parity_pin_recorded(self, preset):
        # Read straight out of ``lab.detection``, against records captured
        # when a ledger, a recorder closure and a per-mode stage table
        # produced them (tests/test_one_lab_parity.py pins the export).
        fixture = os.path.join(os.path.dirname(__file__), "data", "one_lab_parity.json")
        with open(fixture, encoding="utf-8") as handle:
            pinned = {row["name"]: row for row in json.load(handle)["campaign_records"]}[preset]
        _record, lab = execute_scenario(get_preset(preset, num_prefixes=200))
        book = lab.detection
        first = book.outages()[0]
        assert book.stage_offsets_ms(first) == {
            stage: pinned[f"stage_{stage}_ms"] for stage in STAGES
        }
        assert book.outage_summaries() == pinned["outage_chains"]
        assert book.restoration_deciles_ms(first.outage_id) == pinned["restoration_cdf_ms"]

    def test_profiler_observes_every_sim_event(self):
        record, lab = execute_scenario(_withdraw_spec())
        assert lab.profiler is not None
        assert lab.profiler.events_observed == record["sim_events"]
        assert lab.profiler.to_dict()["handlers"]

    def test_causal_fields_survive_pooling_and_rerun(self):
        base = get_preset("figure4", num_prefixes=25, monitored_flows=3)
        specs = expand_grid(base, {"failure": ["link_down", "remote_withdraw"]})
        serial = CampaignRunner(specs, workers=1).run()
        pooled = CampaignRunner(specs, workers=2).run()
        rerun = CampaignRunner(specs, workers=1).run()
        assert serial.scenarios_json() == pooled.scenarios_json()
        assert serial.scenarios_json() == rerun.scenarios_json()
        for row in serial.scenarios:
            [summary] = row["outage_chains"]
            assert summary["outage"] == "outage-1"
            assert summary["chains"] >= 1

    def test_openmetrics_export_is_rerun_stable(self):
        _, first = execute_scenario(_withdraw_spec())
        _, second = execute_scenario(_withdraw_spec())
        assert render_openmetrics(first.telemetry.metrics) == render_openmetrics(
            second.telemetry.metrics
        )

    def test_trace_sink_outlives_the_ring_buffer(self):
        sink = io.StringIO()
        record, lab = execute_scenario(_withdraw_spec(), trace_sink=sink)
        lines = [line for line in sink.getvalue().splitlines() if line]
        assert len(lines) == lab.telemetry.trace.emitted > 4
        events = [json.loads(line) for line in lines]
        assert any(
            event["fields"].get("outage") == "outage-1" for event in events
        )
        # Replayed until it overflows the ring: the ring evicts, the sink
        # does not.
        replay = io.StringIO()
        again = Telemetry(FakeClock(), sink=replay)
        rounds = TRACE_CAPACITY // len(events) + 1
        for _ in range(rounds):
            for event in events:
                again.emit(event["name"], **event["fields"])
        assert len(again.trace.events()) == TRACE_CAPACITY
        assert len(replay.getvalue().splitlines()) == rounds * len(lines) > TRACE_CAPACITY

    def test_report_entry_pipeline_from_live_scenario(self):
        record, lab = execute_scenario(_withdraw_spec())
        entry = {
            "record": record,
            "outages": lab.detection.outage_summaries(),
            "chains": lab.detection.chains(),
            "restoration_cdf": lab.detection.restoration_cdf("outage-1"),
            "profile": lab.profiler.to_dict(),
        }
        report = build_campaign_report([entry])
        page = render_report_html(report)
        assert report["total_prefix_chains"] == 20
        assert "remote-withdraw" in page
        assert report_to_json(report) == report_to_json(
            build_campaign_report([entry])
        )
