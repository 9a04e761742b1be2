"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator seeded deterministically."""
    return Simulator(seed=42)


@pytest.fixture
def small_lab_pair():
    """A converged (non-supercharged, supercharged) lab pair at tiny scale.

    Building labs is comparatively expensive, so integration tests that only
    need a converged lab share this module-scoped pair.
    """
    from repro.scenarios.presets import figure4
    from repro.scenarios.testbed import build_scenario

    labs = {}
    for supercharged in (False, True):
        spec = figure4(num_prefixes=60, supercharged=supercharged, monitored_flows=10)
        lab = build_scenario(Simulator(seed=7), spec)
        assert lab.bring_up(timeout=600)
        labs[supercharged] = lab
    return labs


@pytest.fixture
def check_port_owners():
    """``check(lab, names)``: every wired port of ``lab`` knows its owner —
    the device whose name it carries — the owners are exactly ``names``,
    and the path tracer can step each of them (none is an unknown device).
    """
    from repro.net.addresses import BROADCAST_MAC, IPv4Address
    from repro.net.host import Host
    from repro.openflow.switch import OpenFlowSwitch
    from repro.traffic.reachability import PathTracer

    def check(lab, names):
        tracer = PathTracer(start_port=lab.source.port, first_hop_mac=lambda: None)
        owners = set()
        for link in lab.links.values():
            for port in link.ports:
                assert isinstance(port.owner, (Host, OpenFlowSwitch)), port
                assert port.owner.name == port.owner_name
                owners.add(port.owner_name)
                hops = []
                tracer._step(port.owner, port, BROADCAST_MAC, IPv4Address("8.8.8.8"), hops)
                assert hops[-1].node == port.owner_name, hops
        assert owners == set(names)

    return check
