"""Tests for the event-driven reachability monitor, using the full lab.

These tests also validate that the packet-level sink and the event-driven
monitor agree on the measured outage — the equivalence claim DESIGN.md
makes for the FPGA substitution.
"""

import pytest

from repro.net.addresses import IPv4Address
from repro.scenarios.campaign import PRIMARY_LINK_DOWN, run_failover
from repro.scenarios.failures import FailureInjector
from repro.scenarios.presets import figure4
from repro.scenarios.testbed import ScenarioLab, build_scenario
from repro.sim.engine import Simulator


def _packet_lab(supercharged: bool, rate: float = 500.0) -> ScenarioLab:
    spec = figure4(
        num_prefixes=30,
        supercharged=supercharged,
        monitored_flows=5,
        packet_traffic=True,
        packet_rate_pps=rate,
    )
    lab = build_scenario(Simulator(seed=11), spec)
    assert lab.bring_up(timeout=600)
    lab.source.start()
    lab.sim.run_for(0.2)  # let some packets flow before the failure
    return lab


class TestReachabilityMonitor:
    def test_baseline_is_reachable(self, small_lab_pair):
        for lab in small_lab_pair.values():
            for destination in lab.monitored_destinations:
                assert lab.monitor.is_reachable(destination) is True

    def test_outage_recorded_after_failure(self, small_lab_pair):
        lab = small_lab_pair[True]
        injector = FailureInjector(lab)
        injector.fire(PRIMARY_LINK_DOWN)
        failed_at = injector.first_failure_time
        lab.sim.run_for(0.001)
        for destination in lab.monitored_destinations:
            assert lab.monitor.is_reachable(destination) is False
            # An open outage counts from the instant it began.
            assert lab.monitor.convergence_details(failed_at)[destination] == (
                pytest.approx(lab.sim.now - failed_at), None
            )
        lab.wait_recovered()
        for destination, (duration, _label) in lab.monitor.convergence_details(failed_at).items():
            assert lab.monitor.is_reachable(destination) is True
            assert 0.0 < duration < lab.sim.now - failed_at
        lab.restore_provider()

    def test_convergence_times_positive_and_bounded(self, small_lab_pair):
        lab = small_lab_pair[False]
        result = run_failover(lab, PRIMARY_LINK_DOWN)
        for value in result.samples:
            assert 0.0 < value < 10.0
        lab.restore_provider()

    def test_trace_hops_include_expected_devices(self, small_lab_pair):
        lab = small_lab_pair[True]
        reachable, hops = lab.tracer.trace(lab.monitored_destinations[0])
        assert reachable
        names = [hop.node for hop in hops]
        assert "R1" in names
        assert "sw1" in names
        assert "sink" in names

    def test_unknown_destination_not_tracked(self, small_lab_pair):
        lab = small_lab_pair[True]
        assert lab.monitor.is_reachable(IPv4Address("203.0.113.200")) is None


class TestMonitorMatchesPacketMeasurement:
    @pytest.mark.parametrize("supercharged", [False, True])
    def test_outage_agrees_with_max_inter_packet_gap(self, supercharged):
        lab = _packet_lab(supercharged)
        injector = FailureInjector(lab)
        injector.fire(PRIMARY_LINK_DOWN)
        failure_time = injector.first_failure_time
        lab.wait_recovered()
        lab.sim.run_for(0.5)
        monitor_times = lab.monitor.convergence_details(failure_time)
        interval = 1.0 / lab.spec.packet_rate_pps
        for destination in lab.monitored_destinations:
            stats = lab.sink.stats(destination)
            packet_outage = stats.max_gap
            event_outage, _label = monitor_times[destination]
            # The packet-level measurement can exceed the true outage by at
            # most one inter-packet interval (plus scheduling jitter).
            assert packet_outage >= event_outage - 1e-6
            assert packet_outage <= event_outage + 2.5 * interval


class TestDetectionLabels:
    """Unit tests for the monitor's per-outage detection attribution."""

    def _monitor(self):
        from repro.traffic.reachability import ReachabilityMonitor

        sim = Simulator(seed=1)
        reachable = {"value": True}

        class StubTracer:
            def trace(self, destination):
                return reachable["value"], []

        return sim, reachable, ReachabilityMonitor(sim, StubTracer())

    def test_closed_outage_carries_active_label(self):
        sim, reachable, monitor = self._monitor()
        destination = IPv4Address("9.9.9.9")
        monitor.watch(destination)
        monitor.evaluate_all()
        sim.run_for(1.0)
        reachable["value"] = False
        monitor.notify_forwarding_change()
        monitor.detection_label = lambda: "bgp"
        sim.run_for(0.5)
        reachable["value"] = True
        monitor.notify_forwarding_change()
        duration, label = monitor.convergence_details(1.0)[destination]
        assert duration == pytest.approx(0.5)
        assert label == "bgp"

    def test_label_cleared_between_episodes(self):
        sim, reachable, monitor = self._monitor()
        destination = IPv4Address("9.9.9.9")
        monitor.watch(destination)
        monitor.evaluate_all()
        # The label is asked for when an outage closes, so whatever the
        # source said during an earlier episode is never remembered.
        episode = {"label": "bfd"}
        monitor.detection_label = lambda: episode["label"]
        episode["label"] = None
        sim.run_for(1.0)
        reachable["value"] = False
        monitor.notify_forwarding_change()
        sim.run_for(0.2)
        reachable["value"] = True
        monitor.notify_forwarding_change()
        # No detection event was reported in this episode.
        _, label = monitor.convergence_details(0.5)[destination]
        assert label is None

    def test_still_open_outage_has_no_label(self):
        sim, reachable, monitor = self._monitor()
        destination = IPv4Address("9.9.9.9")
        monitor.watch(destination)
        monitor.evaluate_all()
        sim.run_for(1.0)
        reachable["value"] = False
        monitor.notify_forwarding_change()
        monitor.detection_label = lambda: "bfd"
        sim.run_for(0.3)
        duration, label = monitor.convergence_details(1.0)[destination]
        assert duration == pytest.approx(0.3)
        assert label is None

    def test_reset_clears_labels(self):
        sim, reachable, monitor = self._monitor()
        destination = IPv4Address("9.9.9.9")
        monitor.watch(destination)
        monitor.evaluate_all()
        reachable["value"] = False
        monitor.notify_forwarding_change()
        monitor.detection_label = lambda: "bfd"
        reachable["value"] = True
        monitor.notify_forwarding_change()
        assert monitor.convergence_details(0.0)[destination][1] == "bfd"
        monitor.reset()
        assert monitor.convergence_details(0.0)[destination] == (0.0, None)


class TestPrefixChangeIndex:
    """``notify_prefix_change`` finds covered flows through a per-length
    index; it must re-evaluate exactly what a scan of every destination
    with ``IPv4Prefix.contains`` would, in watch order."""

    def _monitor(self):
        from repro.traffic.reachability import ReachabilityMonitor

        traced = []

        class RecordingTracer:
            def trace(self, destination):
                traced.append(destination)
                return True, []

        return traced, ReachabilityMonitor(Simulator(seed=1), RecordingTracer())

    def test_matches_a_containment_scan_for_every_prefix_length(self):
        from repro.net.addresses import IPv4Prefix

        traced, monitor = self._monitor()
        watched = [
            IPv4Address(text)
            for text in ("20.0.1.9", "20.0.1.1", "20.0.2.1", "20.1.0.1", "99.0.0.1", "20.0.1.200")
        ]
        for destination in watched:
            monitor.watch(destination)
        for text in ("20.0.1.0/24", "20.0.0.0/16", "20.0.0.0/8", "0.0.0.0/0",
                     "20.0.1.1/32", "30.0.0.0/8", "20.0.1.128/25"):
            prefix = IPv4Prefix(text)
            del traced[:]
            monitor.notify_prefix_change(prefix)
            assert traced == [d for d in watched if prefix.contains(d)], text
        assert monitor.evaluations == 3 + 4 + 5 + 6 + 1 + 0 + 1

    def test_watch_after_a_change_is_seen_by_the_next_change(self):
        from repro.net.addresses import IPv4Prefix

        traced, monitor = self._monitor()
        prefix = IPv4Prefix("20.0.1.0/24")
        monitor.watch(IPv4Address("20.0.1.1"))
        monitor.notify_prefix_change(prefix)
        monitor.watch(IPv4Address("20.0.1.2"))
        monitor.watch(IPv4Address("20.0.1.1"))  # already watched: no duplicate
        del traced[:]
        monitor.notify_prefix_change(prefix)
        assert traced == [IPv4Address("20.0.1.1"), IPv4Address("20.0.1.2")]
