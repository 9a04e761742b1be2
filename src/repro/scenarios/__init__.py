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

from typing import Any

from repro import lazy_export

#: Public name -> the module that defines it, resolved on first access
#: (PEP 562): importing the testbed does not load the campaign runner.
_EXPORTS = {
    "CampaignResult": "repro.scenarios.campaign",
    "CampaignRunner": "repro.scenarios.campaign",
    "FailoverResult": "repro.scenarios.campaign",
    "PRIMARY_LINK_DOWN": "repro.scenarios.campaign",
    "execute_scenario": "repro.scenarios.campaign",
    "expand_grid": "repro.scenarios.campaign",
    "run_campaign": "repro.scenarios.campaign",
    "run_failover": "repro.scenarios.campaign",
    "run_scenario": "repro.scenarios.campaign",
    "FailureInjector": "repro.scenarios.failures",
    "random_fan_spec": "repro.scenarios.generator",
    "random_fan_specs": "repro.scenarios.generator",
    "PRESETS": "repro.scenarios.presets",
    "get_preset": "repro.scenarios.presets",
    "preset_names": "repro.scenarios.presets",
    "FAILURE_KINDS": "repro.scenarios.spec",
    "REMOTE_FAILURE_KINDS": "repro.scenarios.spec",
    "FailureSpec": "repro.scenarios.spec",
    "ScenarioSpec": "repro.scenarios.spec",
    "ScenarioSpecError": "repro.scenarios.spec",
    "failure_campaign": "repro.scenarios.spec",
    "ScenarioLab": "repro.scenarios.testbed",
    "build_scenario": "repro.scenarios.testbed",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    return lazy_export(globals(), _EXPORTS, name)
