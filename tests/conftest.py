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
