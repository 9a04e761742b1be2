"""End-to-end lab tests: the paper's headline behaviours at small scale."""

import pytest

from repro.net.addresses import IPv4Address
from repro.scenarios.presets import figure4
from repro.scenarios.campaign import PRIMARY_LINK_DOWN, FailoverResult, run_failover
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator


def _converged_lab(num_prefixes, supercharged, **overrides):
    overrides.setdefault("monitored_flows", 10)
    spec = figure4(num_prefixes=num_prefixes, supercharged=supercharged, **overrides)
    lab = build_scenario(Simulator(seed=13), spec)
    assert lab.bring_up()
    return lab


def test_build_scenario_helper():
    spec = figure4(num_prefixes=20, monitored_flows=4)
    lab = build_scenario(Simulator(seed=1), spec)
    assert lab.spec.num_prefixes == 20
    assert lab.switch is not None
    assert len(lab.controllers) == 1


def test_non_supercharged_prefers_primary_before_failure():
    lab = _converged_lab(40, supercharged=False)
    for entry in lab.edge_routers[0].fib.entries():
        assert entry.adjacency.next_hop_ip == lab.plan.provider_core_ip(0)


def test_non_supercharged_convergence_grows_with_prefix_count():
    small = run_failover(_converged_lab(100, supercharged=False), PRIMARY_LINK_DOWN)
    large = run_failover(_converged_lab(400, supercharged=False), PRIMARY_LINK_DOWN)
    assert large.max_convergence > small.max_convergence
    # With the default 0.281 ms/entry the difference must be roughly
    # 300 entries worth of FIB writes.
    expected_delta = 300 * 0.000281
    assert large.max_convergence - small.max_convergence == pytest.approx(
        expected_delta, rel=0.5
    )


def test_supercharged_convergence_is_prefix_independent():
    small = run_failover(_converged_lab(100, supercharged=True), PRIMARY_LINK_DOWN)
    large = run_failover(_converged_lab(400, supercharged=True), PRIMARY_LINK_DOWN)
    assert small.max_convergence < 0.2
    assert large.max_convergence < 0.2
    assert abs(large.max_convergence - small.max_convergence) < 0.05


def test_supercharged_beats_non_supercharged_at_same_scale():
    standalone = run_failover(_converged_lab(200, supercharged=False), PRIMARY_LINK_DOWN)
    supercharged = run_failover(_converged_lab(200, supercharged=True), PRIMARY_LINK_DOWN)
    assert supercharged.max_convergence < min(standalone.samples)
    assert standalone.max_convergence / supercharged.max_convergence > 3


def test_after_failover_traffic_flows_via_backup():
    lab = _converged_lab(50, supercharged=False)
    run_failover(lab, PRIMARY_LINK_DOWN)
    for entry in lab.edge_routers[0].fib.entries():
        assert entry.adjacency.next_hop_ip == lab.plan.provider_core_ip(1)


def test_repeated_failovers_are_consistent():
    lab = _converged_lab(60, supercharged=True)
    results = []
    for repetition in range(3):
        if repetition:
            assert lab.restore_provider()
        results.append(run_failover(lab, PRIMARY_LINK_DOWN))
    maxima = [result.max_convergence for result in results]
    assert all(value < 0.2 for value in maxima)
    assert max(maxima) - min(maxima) < 0.1


def test_failover_result_accessors():
    lab = _converged_lab(30, supercharged=True, monitored_flows=6)
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    assert isinstance(result, FailoverResult)
    assert result.num_prefixes == 30
    assert len(result.samples) == len(lab.monitored_destinations)
    assert result.max_convergence_ms == pytest.approx(result.max_convergence * 1e3)
    assert min(result.samples) <= result.max_convergence


def test_monitored_destinations_include_first_and_last_prefix():
    lab = _converged_lab(30, supercharged=False, monitored_flows=5)
    prefixes = lab.provider_feeds[0].prefixes()
    first_dest = IPv4Address(prefixes[0].network.value + 1)
    last_dest = IPv4Address(prefixes[-1].network.value + 1)
    assert first_dest in lab.monitored_destinations
    assert last_dest in lab.monitored_destinations


def test_bring_up_then_single_failover():
    spec = figure4(num_prefixes=25, monitored_flows=5)
    lab = build_scenario(Simulator(seed=2), spec)
    assert lab.bring_up()
    assert len(lab.monitored_destinations) == 5
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    assert result.max_convergence < 0.5


def test_custom_fib_updater_configuration_slows_standalone_convergence():
    lab = _converged_lab(
        100,
        supercharged=False,
        fib_first_entry_latency=0.5,
        fib_per_entry_latency=0.002,
    )
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    assert result.max_convergence > 0.5 + 100 * 0.002 * 0.5


def test_hierarchical_fib_converges_fast_without_sdn():
    lab = _converged_lab(150, supercharged=False, hierarchical_fib=True)
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    # PIC repoints a single shared adjacency: convergence is dominated by
    # BFD detection, far below the flat FIB's serial rewrite.
    assert result.max_convergence < 0.2


def test_detection_time_reported_for_both_modes():
    for supercharged in (False, True):
        lab = _converged_lab(30, supercharged=supercharged, monitored_flows=4)
        result = run_failover(lab, PRIMARY_LINK_DOWN)
        assert result.detection_time is not None
        assert 0 < result.detection_time < 0.5
