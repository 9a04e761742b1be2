"""Tests for the lab's construction details (wiring, addressing, rules)."""

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.openflow.flow_table import FlowMatch
from repro.router.fib_updater import FibUpdaterConfig
from repro.scenarios.presets import figure4
from repro.scenarios.campaign import PRIMARY_LINK_DOWN, FailoverResult, run_failover
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator


@pytest.fixture
def built_lab():
    spec = figure4(num_prefixes=10, monitored_flows=3)
    return build_scenario(Simulator(seed=21), spec)


def test_addressing_plan_is_consistent(built_lab):
    plan = built_lab.plan
    devices = (
        plan.edge_core_ip(0),
        plan.provider_core_ip(0),
        plan.provider_core_ip(1),
        plan.controller_ip(0),
    )
    for address in devices:
        assert plan.CORE_SUBNET.contains(address)
    assert plan.CORE_SUBNET.contains(plan.VNH_POOL)
    # The VNH pool must not contain any of the real device addresses.
    for address in devices:
        assert not plan.VNH_POOL.contains(address)


def test_build_is_idempotent(built_lab):
    switch = built_lab.switch
    assert built_lab.build() is built_lab
    assert built_lab.switch is switch


def test_static_switch_rules_cover_all_devices(built_lab):
    table = built_lab.switch.flow_table
    expectations = {
        MacAddress("00:00:00:00:00:01"): 1,  # R1
        MacAddress("00:00:00:00:00:02"): 2,  # R2
        MacAddress("00:00:00:00:00:03"): 3,  # R3
    }
    for mac, port in expectations.items():
        entry = table.find(FlowMatch(eth_dst=mac), 50)
        assert entry is not None
        assert entry.actions.output_port == port


def test_routers_have_core_and_edge_interfaces(built_lab):
    r1 = built_lab.edge_routers[0]
    r2, r3 = built_lab.providers
    assert set(r1.interfaces) == {"core", "to-source"}
    assert set(r2.interfaces) == {"core", "to-sink"}
    assert set(r3.interfaces) == {"core", "to-sink"}
    assert r1.interfaces["core"].ip == IPv4Address("10.0.0.1")


def test_primary_link_is_r2_switch_link(built_lab):
    assert built_lab.primary_link is built_lab.links["r2-sw"]


def test_non_supercharged_lab_has_no_controller():
    spec = figure4(num_prefixes=10, supercharged=False)
    lab = build_scenario(Simulator(seed=22), spec)
    assert lab.controllers == []
    assert lab.cluster is None
    assert lab.edge_routers[0].bfd is not None  # R1 does its own failure detection


def test_supercharged_r1_has_no_bfd(built_lab):
    # In supercharged mode failure detection belongs to the controller.
    assert built_lab.edge_routers[0].bfd is None
    assert built_lab.controllers[0].bfd is not None


def test_every_wired_port_has_an_owner_the_tracer_can_step(built_lab, check_port_owners):
    check_port_owners(built_lab, {"R1", "R2", "R3", "sw1", "sink", "source", "ctrl1"})


def test_setup_monitoring_requires_feeds(built_lab):
    with pytest.raises(RuntimeError):
        built_lab.setup_monitoring()


def test_measure_requires_monitoring_and_failure(built_lab):
    with pytest.raises(RuntimeError):
        run_failover(built_lab, PRIMARY_LINK_DOWN)


def test_select_destinations_caps_at_prefix_count():
    spec = figure4(num_prefixes=5, supercharged=False, monitored_flows=50)
    lab = build_scenario(Simulator(seed=23), spec)
    lab.bring_up(timeout=300)
    assert len(lab.monitored_destinations) <= 5
    assert len(set(lab.monitored_destinations)) == len(lab.monitored_destinations)


def test_run_until_times_out_on_false_condition():
    sim = Simulator(seed=24)
    lab = build_scenario(sim, figure4(num_prefixes=5))
    start = sim.now
    assert lab.run_until(lambda: False, timeout=1.0) is False
    assert sim.now == pytest.approx(start + 1.0)


def test_failover_result_with_no_samples():
    result = FailoverResult(
        supercharged=True, num_prefixes=0, failure_time=0.0, convergence_times={}
    )
    assert result.max_convergence == 0.0
    assert result.stats is None
    assert result.samples == []


def test_lab_config_defaults_match_paper_methodology():
    config = figure4()
    assert config.monitored_flows == 100
    # The spec leaves the FIB timing unset: the router model's own
    # Nexus-7k defaults apply.
    assert config.fib_first_entry_latency is None
    assert config.fib_per_entry_latency is None
    assert FibUpdaterConfig().first_entry_latency == pytest.approx(0.375)
    assert FibUpdaterConfig().per_entry_latency == pytest.approx(0.000281)
    # Detection + rule installation fits inside the paper's 150 ms envelope.
    budget = (
        config.bfd_interval * config.bfd_multiplier
        + config.rest_latency
        + config.flow_mod_latency
    )
    assert budget < 0.15
