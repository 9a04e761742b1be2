"""Tests for the sim-time telemetry subsystem.

Covers the instrument primitives (counters, gauges, fixed-edge
histograms), the trace bus (ring buffer, JSONL sink, spans), the stage
timeline, and the scenario-level contract: telemetry is passive (the
simulation trajectory is identical with components attached or not),
deterministic across serial/pooled execution, and campaign records carry
the paper's detect → decide → push → install decomposition.
"""

import io
import json
import os
import sys

import pytest

import repro.telemetry
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.openflow.controller_channel import ControllerChannel
from repro.openflow.flow_table import Actions, FlowMatch
from repro.openflow.messages import FlowMod, FlowModBatch, FlowModCommand
from repro.router.fib import Adjacency, FlatFib
from repro.router.fib_updater import FibUpdater, FibUpdaterConfig, FibWriteRequest
from repro.scenarios import (
    execute_scenario,
    expand_grid,
    run_campaign,
    run_scenario,
)
from repro.scenarios.presets import get_preset
from repro.scenarios.spec import FailureSpec
from repro.scenarios.testbed import ScenarioLab
from repro.sim.engine import Simulator
from repro.telemetry import (
    STAGES,
    CausalContext,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TraceBus,
)
from repro.telemetry.trace import TRACE_CAPACITY
from repro.telemetry.causal import (
    DETECTION_BFD,
    DETECTION_BGP,
    DETECTION_CONTROLLER_PUSH,
    SESSION_DOWN_EVENT,
    STAGE_OF_EVENT,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_to_dict(self):
        counter = Counter("c")
        counter.inc(2)
        assert counter.to_dict() == {"type": "counter", "value": 2}


class TestGauge:
    def test_set_tracks_high_water_and_samples(self):
        gauge = Gauge("g")
        gauge.set(3)
        gauge.set(7)
        gauge.set(2)
        assert gauge.value == 2
        assert gauge.high_water == 7
        assert gauge.samples == 3

    def test_add_models_queue_occupancy(self):
        gauge = Gauge("g")
        gauge.add(5)
        gauge.add(-3)
        assert gauge.value == 2
        assert gauge.high_water == 5

    def test_to_dict(self):
        gauge = Gauge("g")
        gauge.set(4)
        assert gauge.to_dict() == {
            "type": "gauge",
            "value": 4,
            "high_water": 4,
            "samples": 1,
        }


class TestHistogram:
    def test_buckets_are_upper_bounds_with_overflow(self):
        histogram = Histogram("h", (1.0, 10.0, 100.0))
        for value in (0.5, 1.0, 5.0, 100.0, 1000.0):
            histogram.observe(value)
        assert histogram.counts == [2, 1, 1, 1]
        assert histogram.count == 5
        assert histogram.min == 0.5
        assert histogram.max == 1000.0
        assert histogram.total == pytest.approx(1106.5)

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", ())

    def test_non_increasing_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", (1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram("h", (5.0, 1.0))

    def test_to_dict_is_primitive_and_rounded(self):
        histogram = Histogram("h", (1.0,))
        histogram.observe(0.1234567891234)
        snapshot = histogram.to_dict()
        assert snapshot["edges"] == [1.0]
        assert snapshot["counts"] == [1, 0]
        assert snapshot["total"] == round(0.1234567891234, 9)
        json.dumps(snapshot, sort_keys=True)  # must serialise cleanly


class TestMetricsRegistry:
    def test_get_or_create_shares_instruments(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc()
        assert registry.counter("a").value == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_histogram_edge_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", (1.0, 2.0))
        registry.histogram("h", (1.0, 2.0))  # same edges: fine
        with pytest.raises(ValueError):
            registry.histogram("h", (1.0, 3.0))

    def test_names_and_to_dict_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b")
        registry.gauge("a")
        assert list(registry.to_dict()) == ["a", "b"]
        assert registry.get("a") is registry.gauge("a")
        assert registry.get("missing") is None


class TestTraceBus:
    def test_emit_stamps_the_injected_clock(self):
        now = [0.0]
        bus = TraceBus(clock=lambda: now[0])
        bus.emit("first")
        now[0] = 2.5
        event = bus.emit("second", peer="10.0.0.2")
        assert event.at == 2.5
        assert event.fields == {"peer": "10.0.0.2"}
        assert [e.name for e in bus.events()] == ["first", "second"]
        assert bus.events(name="second") == [event]

    def test_ring_buffer_evicts_oldest(self):
        bus = TraceBus(clock=lambda: 0.0)
        for i in range(TRACE_CAPACITY + 2):
            bus.emit(f"e{i}")
        names = [e.name for e in bus.events()]
        assert len(names) == TRACE_CAPACITY
        assert names[0] == "e2" and names[-1] == f"e{TRACE_CAPACITY + 1}"
        assert bus.emitted == TRACE_CAPACITY + 2  # the counter survives eviction

    def test_jsonl_sink_writes_sorted_lines(self):
        sink = io.StringIO()
        bus = TraceBus(clock=lambda: 1.5, sink=sink)
        bus.emit("x", b=2, a=1)
        line = sink.getvalue().strip()
        assert json.loads(line) == {"at": 1.5, "name": "x", "fields": {"a": 1, "b": 2}}
        assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_span_measures_sim_time(self):
        now = [1.0]
        span = Telemetry(clock=lambda: now[0]).span("work", phase="flush")
        now[0] = 1.25
        event = span.end(entries=3)
        assert event.fields == {"phase": "flush", "entries": 3, "duration": 0.25}
        assert event.at == 1.25


class TestStageTimeline:
    """The per-outage stage timeline, kept by the episode book."""

    def test_first_mark_wins(self):
        now = [0.0]
        telemetry = Telemetry(clock=lambda: now[0])
        telemetry.causal.open_outage(0.0)
        for now[0] in (1.0, 2.0):
            telemetry.emit("detection.bfd")
        offsets = telemetry.causal.stage_offsets_ms(telemetry.causal.current)
        assert offsets["detect"] == pytest.approx(1000.0)

    def test_stage_table_names_only_known_stages(self):
        assert set(STAGE_OF_EVENT.values()) == set(STAGES)

    def test_session_flush_decides_only_without_a_controller_plane(self):
        assert STAGE_OF_EVENT[SESSION_DOWN_EVENT] == "decide"
        for router_decides, expected in ((True, 0.0), (False, None)):
            book = CausalContext()
            book.router_decides = router_decides
            book.open_outage(1.0)
            book.mark_stage(SESSION_DOWN_EVENT, 1.0)
            assert book.stage_offsets_ms(book.current)["decide"] == expected

    def test_offsets_ms_and_reset(self):
        now = [1.0]
        telemetry = Telemetry(clock=lambda: now[0])
        telemetry.causal.open_outage(1.0)
        first = telemetry.causal.current
        now[0] = 1.010
        telemetry.emit("detection.bfd")
        now[0] = 1.5
        telemetry.emit("fib.apply_first")
        offsets = telemetry.causal.stage_offsets_ms(first)
        assert offsets["detect"] == pytest.approx(10.0)
        assert offsets["install"] == pytest.approx(500.0)
        assert offsets["decide"] is None and offsets["push"] is None
        # The next outage opens a fresh episode; the closed one keeps its marks.
        telemetry.causal.open_outage(2.0)
        second = telemetry.causal.current
        assert telemetry.causal.stage_offsets_ms(second) == dict.fromkeys(STAGES)
        now[0] = 2.25
        telemetry.emit("detection.bfd")
        assert telemetry.causal.stage_offsets_ms(second)["detect"] == pytest.approx(250.0)
        assert telemetry.causal.stage_offsets_ms(first) == offsets

    def test_timeline_recorder_maps_event_names(self):
        now = [3.0]
        telemetry = Telemetry(clock=lambda: now[0])
        telemetry.emit("detection.bfd")  # before any outage: not a convergence stage
        telemetry.causal.open_outage(3.0)
        telemetry.emit("unrelated")
        offsets = telemetry.causal.stage_offsets_ms(telemetry.causal.current)
        assert offsets == dict.fromkeys(STAGES)
        now[0] = 3.5
        telemetry.emit("detection.bfd")
        offsets = telemetry.causal.stage_offsets_ms(telemetry.causal.current)
        assert offsets["detect"] == pytest.approx(500.0)


class TestTelemetryFacade:
    def test_passthroughs_share_registries(self):
        telemetry = Telemetry(clock=lambda: 0.5)
        telemetry.counter("c").inc()
        telemetry.gauge("g").set(2)
        telemetry.histogram("h", (1.0,)).observe(0.5)
        telemetry.emit("event", x=1)
        assert telemetry.metrics.counter("c").value == 1
        assert telemetry.trace.events()[0].name == "event"
        span = telemetry.span("s")
        assert span.end().fields["duration"] == 0.0


# ----------------------------------------------------------------------
# Detections in the episode book (``CausalContext``, ``lab.detection``).
# The class keeps the name its test ids have had since the log was a
# separate ``DetectionTracker``.
# ----------------------------------------------------------------------
class TestDetectionTrackerEdgeCases:
    def test_same_instant_bfd_vs_bgp_tie_goes_to_bfd(self):
        # A BFD trigger tears the BGP session down in the same sim instant;
        # the detector caused it, so attribution must say BFD even when the
        # BGP observation happened to be recorded first.
        book = CausalContext()
        peer = IPv4Address("10.0.0.2")
        book.record_detection(0.0, DETECTION_BGP, peer)
        book.record_detection(0.0, DETECTION_BFD, peer)
        winner = book.first_detection(0.0)
        assert winner is not None and winner.path == DETECTION_BFD
        assert book.episode_detection_path() == DETECTION_BFD

    def test_overlapping_outages_keep_per_peer_attribution(self):
        # Two providers fail inside the same episode: each peer keeps its
        # own first detection, and the episode winner is the earliest.
        book = CausalContext()
        p2, p3 = IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3")
        book.record_detection(0.1, DETECTION_BFD, p2)
        book.record_detection(0.3, DETECTION_BGP, p3)
        assert book.first_detection(0.0, peer_ip=p2).path == DETECTION_BFD
        assert book.first_detection(0.0, peer_ip=p3).path == DETECTION_BGP
        assert book.first_detection(0.0).at == pytest.approx(0.1)
        # The per-episode dedup keeps one event per (path, peer) pair.
        book.record_detection(0.4, DETECTION_BFD, p2)
        assert len(book.detections) == 2

    def test_controller_push_never_wins_detection(self):
        book = CausalContext()
        book.record_detection(0.0, DETECTION_CONTROLLER_PUSH)
        assert book.first_detection(0.0) is None
        assert book.episode_detection_path() is None
        assert book.first_push(0.0) is not None
        assert book.first_push(0.5) is None
        book.record_detection(0.0, DETECTION_BGP, IPv4Address("10.0.0.2"))
        assert book.first_detection(0.0).path == DETECTION_BGP

    def test_redundant_controller_replicas_dedup_to_one_observation(self):
        # With redundant controllers both replicas watch the same BFD
        # sessions; the book's per-episode dedup must collapse the
        # replicas' concurrent observations into one attributed event.
        spec = get_preset(
            "figure4", num_prefixes=40, monitored_flows=5, seed=7
        ).with_overrides(redundant_controllers=True).validate()
        record = run_scenario(spec)
        assert record["detection_path"] == "bfd"
        assert record["recovered"]

    def test_new_episode_reopens_dedup(self):
        book = CausalContext()
        peer = IPv4Address("10.0.0.2")
        book.record_detection(0.1, DETECTION_BFD, peer)
        book.record_detection(0.2, DETECTION_BFD, peer)
        assert len(book.detections) == 1
        book.open_outage(1.0)
        # The new episode has no winner until a mechanism records again.
        assert book.episode_detection_path() is None
        book.record_detection(1.1, DETECTION_BFD, peer)
        assert len(book.detections) == 2
        assert book.episode_detection_path() == DETECTION_BFD

    def test_telemetry_mirrors_detection_records(self):
        # The book knows no telemetry: the lab's hooks mirror each *new*
        # record as one counter tick and one ``detection.<path>`` event.
        _record, lab = execute_scenario(_small_spec())
        recorded = lab.detection.detections
        paths = {event.path for event in recorded}
        assert paths == {DETECTION_BFD, DETECTION_BGP, DETECTION_CONTROLLER_PUSH}
        for path in sorted(paths):
            mirrored = lab.telemetry.trace.events(name=f"detection.{path}")
            expected = [event for event in recorded if event.path == path]
            assert lab.telemetry.metrics.counter(f"detection.{path}").value == len(expected)
            assert [event.at for event in mirrored] == [event.at for event in expected]
            assert [event.fields["peer"] for event in mirrored] == [
                str(event.peer_ip) if event.peer_ip is not None else None
                for event in expected
            ]

    def test_detection_before_any_failure_is_kept_but_never_answers_for_one(self):
        # "Episode 0": churn replay displacing a provider's own best path
        # is a detection with no outage to belong to.  It is kept, reported
        # new once (so mirrored once: every record's ``trace_events`` counts
        # it), labels outages closing before any failure, and is invisible
        # from a failure on.
        book = CausalContext()
        peer = IPv4Address("10.0.0.2")
        assert book.record_detection(0.5, DETECTION_BGP, peer) is True
        assert book.record_detection(0.7, DETECTION_BGP, peer) is False
        assert [event.at for event in book.detections] == [0.5]
        assert book.current_id is None
        assert book.episode_detection_path() == DETECTION_BGP
        failure_time = 2.0
        book.open_outage(failure_time, kind="link_down", provider=0)
        assert book.detections[0].at == 0.5
        assert book.first_detection(failure_time) is None
        assert book.first_detection(failure_time, peer_ip=peer) is None
        assert book.episode_detection_path() is None


# ----------------------------------------------------------------------
# Scenario-level contract
# ----------------------------------------------------------------------
def _small_spec(**overrides):
    spec = get_preset("figure4", num_prefixes=40, monitored_flows=5, seed=3)
    if overrides:
        spec = spec.with_overrides(**overrides).validate()
    return spec


class TestScenarioTelemetry:
    def test_unwired_telemetry_does_not_change_the_simulation(self, monkeypatch):
        # Passivity, checked by running: a lab whose components never
        # had the telemetry context attached runs the same simulation and
        # reads out the same failure.
        wired = run_scenario(_small_spec())
        monkeypatch.setattr(ScenarioLab, "_wire_telemetry", lambda self: None)
        unwired = run_scenario(_small_spec())
        assert wired["sim_events"] == unwired["sim_events"]
        telemetry_keys = {
            "trace_events",
            "flow_mod_queue_peak",
            "outage_chains",
            "restoration_cdf_ms",
        } | {f"stage_{stage}_ms" for stage in STAGES}
        for key in set(wired) - telemetry_keys:
            assert wired[key] == unwired[key], key
        # Only the lab's own events are left: the episode and its detections.
        assert 0 < unwired["trace_events"] < wired["trace_events"]
        assert unwired["flow_mod_queue_peak"] is None
        assert unwired["restoration_cdf_ms"] == []
        assert unwired["stage_push_ms"] is None and unwired["stage_install_ms"] is None

    def test_supercharged_stage_pipeline_is_ordered(self):
        record = run_scenario(_small_spec())
        stages = [record[f"stage_{stage}_ms"] for stage in STAGES]
        assert all(value is not None for value in stages)
        detect, decide, push, install = stages
        assert 0.0 <= detect <= decide <= push <= install
        # The stage decomposition must be consistent with the headline
        # detection/convergence numbers.
        assert detect == pytest.approx(record["detection_ms"], abs=1e-3)
        assert install <= record["max_ms"] + 1e-6

    def test_standalone_stage_pipeline_is_ordered(self):
        record = run_scenario(_small_spec(supercharged=False))
        stages = [record[f"stage_{stage}_ms"] for stage in STAGES]
        assert all(value is not None for value in stages)
        detect, decide, push, install = stages
        assert 0.0 <= detect <= decide <= push <= install
        # Standalone install waits for the FIB's first-entry latency, so it
        # lands far after the push stage (the paper's core observation).
        assert install > push

    def test_record_carries_gauges_and_batch_stats(self):
        record = run_scenario(_small_spec())
        assert record["telemetry"] is True
        assert record["group_count"] >= 1
        assert record["vnh_occupancy"] >= 1
        assert record["flow_mod_batches"] >= 1
        assert record["flow_mods_per_batch"] >= 1.0
        assert record["flow_mod_queue_peak"] >= 1
        assert record["trace_events"] > 0

    def test_no_failure_scenario_has_empty_stage_timeline(self):
        record = run_scenario(_small_spec(failures=[]))
        for stage in STAGES:
            assert record[f"stage_{stage}_ms"] is None

    def test_serial_and_pooled_campaigns_are_byte_identical(self):
        grid = {"failure": ["link_down", "bfd_loss"]}
        serial = run_campaign(_small_spec(), grid, workers=1)
        pooled = run_campaign(_small_spec(), grid, workers=2)
        assert json.dumps(serial.scenarios, sort_keys=True) == json.dumps(
            pooled.scenarios, sort_keys=True
        )

    def test_aggregate_includes_stage_histograms(self):
        result = run_campaign(_small_spec(), {"failure": ["link_down"]}, workers=1)
        aggregate = result.aggregate()
        assert aggregate["total_flow_mod_batches"] >= 1
        assert aggregate["total_flow_mods_pushed"] >= 1
        histograms = aggregate["stage_histograms"]
        assert set(histograms) == set(STAGES)
        for stage in STAGES:
            assert histograms[stage]["count"] == 1
        assert "detect" in result.stage_table()
        assert "install" in result.stage_summary()

    def test_multi_episode_record_reports_the_first_episode(self):
        spec = _small_spec(
            failures=[FailureSpec(kind="link_flap", at=0.5, count=2, period=1.0)]
        )
        record = run_scenario(spec)
        # Flap cycles open several episodes; the exported offsets must be
        # the first episode's (matching detection_ms semantics).
        assert record["stage_detect_ms"] is not None
        assert record["stage_detect_ms"] == pytest.approx(
            record["detection_ms"], abs=1e-3
        )


class TestDetachedHotPaths:
    """Contract rule 1 (docs/observability.md) as an exact count: with
    telemetry detached, the two instrumented hot paths enter no function
    of ``repro/telemetry/`` and none of the updater's ``_note_*`` hooks."""

    TELEMETRY_DIR = os.path.dirname(repro.telemetry.__file__) + os.sep
    FIB_WRITES = 1000
    CHANNEL_BATCHES = 100

    def _drive(self, telemetry):
        """Drain the FIB writes and deliver the flow-mod batches under a
        profile hook; returns the telemetry-side functions entered and
        the simulated work done."""
        sim = Simulator(seed=1)
        fast = FibUpdaterConfig(first_entry_latency=1e-6, per_entry_latency=1e-7)
        updater = FibUpdater(sim, FlatFib(), config=fast)
        channel = ControllerChannel(sim, latency=1e-6)
        if telemetry is not None:
            updater.attach_telemetry(telemetry)
            channel.attach_telemetry(telemetry)
        delivered = []
        channel.connect_switch(delivered.append)
        adjacency = Adjacency(mac=MacAddress("00:00:00:00:00:01"), interface="eth0")
        requests = [
            FibWriteRequest(prefix=IPv4Prefix(f"10.{i >> 8}.{i & 255}.0/24"), adjacency=adjacency)
            for i in range(self.FIB_WRITES)
        ]
        batch = FlowModBatch(
            mods=tuple(
                FlowMod(
                    command=FlowModCommand.ADD,
                    match=FlowMatch(eth_dst=MacAddress(i + 1)),
                    actions=Actions(output_port=1),
                )
                for i in range(4)
            )
        )
        entered = []

        def profile(frame, event, _arg):
            code = frame.f_code
            if event == "call" and (
                code.co_filename.startswith(self.TELEMETRY_DIR)
                or code.co_name in ("_note_batch_start", "_note_batch_drain")
            ):
                entered.append(code.co_name)

        sys.setprofile(profile)
        try:
            updater.enqueue_many(requests)
            for _ in range(self.CHANNEL_BATCHES):
                channel.send_flow_mod_batch(batch)
            sim.run()
        finally:
            sys.setprofile(None)
        return entered, (updater.writes_applied, len(delivered), sim.now)

    def test_detached_paths_enter_no_telemetry_code(self):
        entered, work = self._drive(None)
        assert entered == []
        assert work[:2] == (self.FIB_WRITES, self.CHANNEL_BATCHES)
        # The probe is not blind: attached, the same drive does enter
        # telemetry code, and does the same simulated work.
        sim_clock = Simulator()
        attached, attached_work = self._drive(Telemetry(clock=lambda: sim_clock.now))
        assert {"_note_batch_start", "_note_batch_drain", "emit", "restored"} <= set(attached)
        assert attached_work == work


class TestScaleGauges:
    """The process-level scale gauges of repro.telemetry.process."""

    def test_peak_rss_is_positive(self):
        from repro.telemetry.process import peak_rss_mb

        assert peak_rss_mb() > 0

    def test_sample_scale_gauges_sets_all_three(self):
        from repro.sim.engine import Simulator
        from repro.telemetry import Telemetry
        from repro.telemetry.process import sample_scale_gauges

        sim = Simulator()
        telemetry = Telemetry(clock=lambda: sim.now)
        sample_scale_gauges(telemetry, rib_prefixes=42, shard_count=4)
        assert telemetry.metrics.get("rib.prefixes").value == 42
        assert telemetry.metrics.get("planner.shard_count").value == 4
        assert telemetry.metrics.get("process.peak_rss_mb").value > 0
        # Partial samples leave the other gauges untouched.
        sample_scale_gauges(telemetry, shard_count=8)
        assert telemetry.metrics.get("rib.prefixes").value == 42
        assert telemetry.metrics.get("planner.shard_count").value == 8
        # A disabled component (telemetry=None) is a no-op, not an error.
        sample_scale_gauges(None, rib_prefixes=1)

    def test_controller_occupancy_sample_includes_scale_gauges(self):
        from repro.scenarios.campaign import execute_scenario

        _record, lab = execute_scenario(_small_spec())
        assert lab.telemetry.metrics.get("rib.prefixes").value >= 1
        assert lab.telemetry.metrics.get("planner.shard_count").value == 1
        assert lab.telemetry.metrics.get("process.peak_rss_mb").value > 0

    def test_sharded_build_reports_shard_count(self):
        from repro.sim.engine import Simulator
        from repro.supercharge.sharding import run_sharded_build
        from repro.telemetry import Telemetry

        sim = Simulator()
        telemetry = Telemetry(clock=lambda: sim.now)
        run_sharded_build(
            peers=("9.0.0.1", "9.0.1.1", "9.0.1.2"),
            prefix_count=200,
            seed=3,
            num_shards=2,
            workers=1,
            telemetry=telemetry,
        )
        assert telemetry.metrics.get("rib.prefixes").value == 200
        assert telemetry.metrics.get("planner.shard_count").value == 2
