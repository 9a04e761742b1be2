"""Integration tests for the supercharged controller inside the full lab."""

import pytest

from repro.net.addresses import IPv4Address
from repro.scenarios.campaign import PRIMARY_LINK_DOWN, run_failover
from repro.scenarios.presets import figure4
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator

R1_CORE_IP = IPv4Address("10.0.0.1")
R2_CORE_IP = IPv4Address("10.0.0.2")
R3_CORE_IP = IPv4Address("10.0.0.3")


@pytest.fixture(scope="module")
def supercharged_lab():
    spec = figure4(num_prefixes=80, monitored_flows=10)
    lab = build_scenario(Simulator(seed=3), spec)
    assert lab.bring_up(timeout=600)
    return lab


def test_controller_sessions_established(supercharged_lab):
    controller = supercharged_lab.controllers[0]
    assert set(controller.bgp.established_peers()) == {R1_CORE_IP, R2_CORE_IP, R3_CORE_IP}


def test_single_backup_group_for_two_providers(supercharged_lab):
    controller = supercharged_lab.controllers[0]
    groups = controller.backup_groups.groups()
    non_empty = [group for group in groups if group.prefix_count > 0]
    assert len(non_empty) == 1
    group = non_empty[0]
    assert group.key == (R2_CORE_IP, R3_CORE_IP)
    assert group.prefix_count == supercharged_lab.spec.num_prefixes


def test_router_fib_points_at_virtual_mac(supercharged_lab):
    lab = supercharged_lab
    group = [g for g in lab.controllers[0].backup_groups.groups() if g.prefix_count][0]
    entries = list(lab.edge_routers[0].fib.entries())
    assert len(entries) == lab.spec.num_prefixes
    assert all(entry.adjacency.mac == group.vmac for entry in entries)


def test_router_learned_routes_carry_vnh_next_hop(supercharged_lab):
    lab = supercharged_lab
    group = [g for g in lab.controllers[0].backup_groups.groups() if g.prefix_count][0]
    for prefix in list(lab.edge_routers[0].bgp.loc_rib.prefixes())[:10]:
        best = lab.edge_routers[0].bgp.loc_rib.best(prefix)
        assert best.next_hop == group.vnh


def test_switch_has_vmac_rewrite_rule(supercharged_lab):
    lab = supercharged_lab
    group = [g for g in lab.controllers[0].backup_groups.groups() if g.prefix_count][0]
    from repro.openflow.flow_table import FlowMatch

    entry = lab.switch.flow_table.find(FlowMatch(eth_dst=group.vmac), 200)
    assert entry is not None
    assert entry.actions.set_eth_dst is not None
    assert entry.actions.output_port == 2  # primary provider's port


def test_arp_responder_owns_group_vnh(supercharged_lab):
    controller = supercharged_lab.controllers[0]
    bindings = controller.vnh_bindings()
    group = [g for g in controller.backup_groups.groups() if g.prefix_count][0]
    assert bindings[group.vnh] == group.vmac


def test_failover_redirects_switch_rule_and_counts_event(supercharged_lab):
    lab = supercharged_lab
    convergence = lab.controllers[0].convergence
    seen = len(convergence.events)
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    assert result.max_convergence < 0.5
    events = convergence.events[seen:]
    assert events and events[0].failed_peer == R2_CORE_IP
    assert events[0].groups_redirected >= 1
    group = [g for g in lab.controllers[0].backup_groups.groups() if g.vmac][0]
    from repro.openflow.flow_table import FlowMatch

    entry = lab.switch.flow_table.find(FlowMatch(eth_dst=group.vmac), 200)
    assert entry.actions.output_port == 3  # backup provider's port
    # Control-plane convergence follows: R1 is re-announced real next hops.
    assert lab.edge_routers[0].bgp.loc_rib.best(lab.provider_feeds[0].routes[0].prefix) is not None
    lab.restore_provider()


def test_restore_points_rule_back_to_primary(supercharged_lab):
    lab = supercharged_lab
    run_failover(lab, PRIMARY_LINK_DOWN)
    lab.restore_provider()
    group = [g for g in lab.controllers[0].backup_groups.groups() if g.prefix_count][0]
    from repro.openflow.flow_table import FlowMatch

    entry = lab.switch.flow_table.find(FlowMatch(eth_dst=group.vmac), 200)
    assert entry.actions.output_port == 2
    assert lab._all_reachable()


def test_detection_time_within_bfd_budget(supercharged_lab):
    lab = supercharged_lab
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    budget = lab.spec.bfd_interval * lab.spec.bfd_multiplier
    assert result.detection_time is not None
    # Detection cannot be faster than one interval nor slower than the
    # detection time plus one (jittered) transmission interval.
    assert result.detection_time <= budget + lab.spec.bfd_interval * 1.2
    assert result.detection_time > 0
    lab.restore_provider()


def test_update_processing_instrumentation(supercharged_lab):
    controller = supercharged_lab.controllers[0]
    assert controller.updates_relayed >= supercharged_lab.spec.num_prefixes
