"""Declarative scenario engine.

Generalises the paper's Figure-4 lab into a programmable experiment
platform:

* :mod:`repro.scenarios.spec` — declarative, JSON-round-trippable
  scenario descriptions (:class:`ScenarioSpec`, :class:`FailureSpec`);
* :mod:`repro.scenarios.testbed` — compiles specs into wired simulations
  (:class:`ScenarioLab`, multi-provider fans, multi-router setups,
  redundant controllers);
* :mod:`repro.scenarios.failures` — the composable failure-injection
  engine (:class:`FailureInjector`);
* :mod:`repro.scenarios.presets` — named scenarios (the Figure-4 lab is
  the ``figure4`` preset);
* :mod:`repro.scenarios.generator` — randomized ISP-like scenario batches;
* :mod:`repro.scenarios.campaign` — the failover driver
  (:func:`run_failover`), parameter-grid expansion and the parallel
  campaign runner with its aggregated JSON results store.
"""

from repro.scenarios.campaign import (
    PRIMARY_LINK_DOWN,
    CampaignResult,
    CampaignRunner,
    FailoverResult,
    execute_scenario,
    expand_grid,
    run_campaign,
    run_failover,
    run_scenario,
)
from repro.scenarios.failures import FailureInjector
from repro.scenarios.generator import random_fan_spec, random_fan_specs
from repro.scenarios.presets import PRESETS, get_preset, preset_names
from repro.scenarios.spec import (
    FAILURE_KINDS,
    REMOTE_FAILURE_KINDS,
    FailureSpec,
    ScenarioSpec,
    ScenarioSpecError,
    failure_campaign,
)
from repro.scenarios.testbed import ScenarioLab, build_scenario

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "FAILURE_KINDS",
    "REMOTE_FAILURE_KINDS",
    "FailoverResult",
    "FailureInjector",
    "FailureSpec",
    "PRESETS",
    "PRIMARY_LINK_DOWN",
    "ScenarioLab",
    "ScenarioSpec",
    "ScenarioSpecError",
    "build_scenario",
    "execute_scenario",
    "expand_grid",
    "failure_campaign",
    "get_preset",
    "preset_names",
    "random_fan_spec",
    "random_fan_specs",
    "run_campaign",
    "run_failover",
    "run_scenario",
]
