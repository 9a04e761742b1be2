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

from repro.sim.engine import Simulator
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.speaker import BgpSpeaker
from repro.router.fib_updater import FibUpdaterConfig
from repro.router.router import Router, RouterConfig
from repro.openflow.switch import OpenFlowSwitch, SwitchConfig
from repro.core.backup_groups import BackupGroupManager
from repro.core.controller import SuperchargedController
from repro.core.reliability import ControllerCluster
from repro.core.vnh_allocator import VnhAllocator
from repro.routes.ris_feed import synthetic_full_table
from repro.stats import BoxStats
from repro.experiments.controller_bench import ControllerMicrobench
from repro.experiments.figure5 import Figure5Experiment
from repro.scenarios import (
    PRIMARY_LINK_DOWN,
    CampaignRunner,
    FailoverResult,
    FailureInjector,
    FailureSpec,
    ScenarioLab,
    ScenarioSpec,
    build_scenario,
    expand_grid,
    get_preset,
    run_campaign,
    run_failover,
    run_scenario,
)

#: Keep in sync with ``version`` in pyproject.toml.
__version__ = "1.1.0"

__all__ = [
    "Simulator",
    "IPv4Address",
    "IPv4Prefix",
    "MacAddress",
    "BgpSpeaker",
    "PathAttributes",
    "UpdateMessage",
    "Router",
    "RouterConfig",
    "FibUpdaterConfig",
    "OpenFlowSwitch",
    "SwitchConfig",
    "BackupGroupManager",
    "ControllerCluster",
    "SuperchargedController",
    "VnhAllocator",
    "synthetic_full_table",
    "BoxStats",
    "ControllerMicrobench",
    "Figure5Experiment",
    "PRIMARY_LINK_DOWN",
    "CampaignRunner",
    "FailoverResult",
    "FailureInjector",
    "FailureSpec",
    "ScenarioLab",
    "ScenarioSpec",
    "build_scenario",
    "expand_grid",
    "get_preset",
    "run_campaign",
    "run_failover",
    "run_scenario",
    "__version__",
]
