"""Tests for controller redundancy (paper §3, Reliability)."""

import pytest

from repro.scenarios.campaign import PRIMARY_LINK_DOWN, run_failover
from repro.scenarios.presets import figure4
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator


@pytest.fixture(scope="module")
def redundant_lab():
    spec = figure4(num_prefixes=40, redundant_controllers=True, monitored_flows=8)
    lab = build_scenario(Simulator(seed=5), spec)
    assert lab.bring_up(timeout=600)
    return lab


def test_both_replicas_are_established(redundant_lab):
    cluster = redundant_lab.cluster
    assert len(cluster.replicas()) == 2
    for controller in cluster.replicas():
        assert len(controller.bgp.established_peers()) == 3


def test_replicas_compute_identical_assignments_without_synchronisation(redundant_lab):
    cluster = redundant_lab.cluster
    assert cluster.assignments_consistent()
    first, second = cluster.replicas()
    assert first.vnh_bindings() == second.vnh_bindings()
    assert first.group_count() == second.group_count()


def test_router_receives_two_copies_of_each_route(redundant_lab):
    lab = redundant_lab
    prefix = lab.provider_feeds[0].routes[0].prefix
    ranking = lab.edge_routers[0].bgp.loc_rib.ranking(prefix)
    assert len(ranking) == 2
    peer_ips = {route.source.peer_ip for route in ranking}
    assert peer_ips == {c.config.ip for c in lab.cluster.replicas()}


def test_failover_still_converges_after_one_replica_crashes(redundant_lab):
    lab = redundant_lab
    lab.cluster.fail_replica("ctrl1")
    assert [c.name for c in lab.cluster.healthy_replicas()] == ["ctrl2"]
    assert lab.cluster.surviving_protection()
    # Let the router notice the dead controller's BGP session disappearing.
    lab.sim.run_for(1.0)
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    # A real outage (the crash must not have pre-redirected traffic) that the
    # surviving replica repairs within the paper's envelope.
    assert 0.01 < result.max_convergence < 0.5
    lab.restore_provider()


def test_fail_replica_is_idempotent(redundant_lab):
    lab = redundant_lab
    first = lab.cluster.fail_replica("ctrl1")
    second = lab.cluster.fail_replica("ctrl1")
    assert first is second
    assert len(lab.cluster.healthy_replicas()) == 1


def test_duplicate_replica_registration_rejected(redundant_lab):
    with pytest.raises(ValueError):
        redundant_lab.cluster.add_replica(redundant_lab.controllers[0])
