"""Reproduction of "Supercharge me: Boost Router Convergence with SDN".

The package rebuilds, in pure Python, the complete system of the paper
(Chang, Holterbach, Happe, Vanbever — SIGCOMM 2015): a discrete-event
network simulator, BGP/ARP/BFD/OpenFlow substrates, a legacy-router model
with the slow flat-FIB update path, the supercharged controller that pairs
the router with an SDN switch, and the evaluation lab and experiment
harnesses reproducing the paper's Figure 5 and micro-benchmarks.

There is one lab: a :class:`ScenarioSpec` (the paper's testbed is the
``figure4`` preset, ``supercharged`` on or off) compiled by
:func:`build_scenario` into a :class:`ScenarioLab`.

Quickstart
----------

>>> from repro import PRIMARY_LINK_DOWN, Simulator, build_scenario, get_preset, run_failover
>>> spec = get_preset("figure4", num_prefixes=500, monitored_flows=20)
>>> lab = build_scenario(Simulator(seed=spec.seed), spec)
>>> lab.bring_up()
True
>>> result = run_failover(lab, PRIMARY_LINK_DOWN)
>>> result.max_convergence_ms < 1000
True
"""

import importlib
from typing import Any, Dict, Mapping

#: Keep in sync with ``version`` in pyproject.toml.
__version__ = "1.1.0"

#: Public name -> the module that defines it.  Resolved on first access
#: (PEP 562), so ``import repro`` — which every ``import repro.x.y`` runs
#: first — loads none of them: a caller pays for what it uses.
_EXPORTS = {
    "Simulator": "repro.sim.engine",
    "IPv4Address": "repro.net.addresses",
    "IPv4Prefix": "repro.net.addresses",
    "MacAddress": "repro.net.addresses",
    "BgpSpeaker": "repro.bgp.speaker",
    "PathAttributes": "repro.bgp.attributes",
    "UpdateMessage": "repro.bgp.messages",
    "Router": "repro.router.router",
    "RouterConfig": "repro.router.router",
    "FibUpdaterConfig": "repro.router.fib_updater",
    "OpenFlowSwitch": "repro.openflow.switch",
    "BackupGroupManager": "repro.core.backup_groups",
    "ControllerCluster": "repro.core.reliability",
    "SuperchargedController": "repro.core.controller",
    "VnhAllocator": "repro.core.vnh_allocator",
    "synthetic_full_table": "repro.routes.ris_feed",
    "BoxStats": "repro.stats",
    "ControllerMicrobench": "repro.experiments.controller_bench",
    "Figure5Experiment": "repro.experiments.figure5",
    "PRIMARY_LINK_DOWN": "repro.scenarios.campaign",
    "CampaignRunner": "repro.scenarios.campaign",
    "FailoverResult": "repro.scenarios.campaign",
    "FailureInjector": "repro.scenarios.failures",
    "FailureSpec": "repro.scenarios.spec",
    "ScenarioLab": "repro.scenarios.testbed",
    "ScenarioSpec": "repro.scenarios.spec",
    "build_scenario": "repro.scenarios.testbed",
    "expand_grid": "repro.scenarios.campaign",
    "get_preset": "repro.scenarios.presets",
    "run_campaign": "repro.scenarios.campaign",
    "run_failover": "repro.scenarios.campaign",
    "run_scenario": "repro.scenarios.campaign",
}

__all__ = [*_EXPORTS, "__version__"]


def lazy_export(namespace: Dict[str, Any], exports: Mapping[str, str], name: str) -> Any:
    """A package's PEP 562 ``__getattr__``: import ``name``, cached in ``namespace``."""
    module = exports.get(name)
    if module is None:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    value = namespace[name] = getattr(importlib.import_module(module), name)
    return value


def __getattr__(name: str) -> Any:
    return lazy_export(globals(), _EXPORTS, name)
