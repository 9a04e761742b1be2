"""The package surface: every name the lazy packages (``repro``,
``repro.scenarios``, ``repro.telemetry``) export imports, and a run
imports only the code it runs — ``import repro`` loads nothing, a
``dfz-build`` shard no OpenFlow stack, a standalone lab no controller, no
run generates code at import (no ``dataclasses``, so no ``inspect``), and
no import lands in a converge or failover phase."""

import doctest
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(probe, *argv):
    """``probe``'s stdout lines in a fresh interpreter (``-B``: no ``.pyc``
    left in ``src/``), so what other tests imported does not count."""
    result = subprocess.run(
        [sys.executable, "-B", "-c", probe, *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return result.stdout.split("\n")


LAZY_PACKAGES = ("repro", "repro.scenarios", "repro.telemetry")


def test_every_exported_name_resolves_to_its_defining_module():
    for package in map(importlib.import_module, LAZY_PACKAGES):
        for name in package.__all__:
            namespace = {}
            exec(f"from {package.__name__} import {name}", namespace)
            value = namespace[name]
            assert value is getattr(package, name)
            if name != "__version__":
                defined_in = sys.modules[package._EXPORTS[name]]
                assert value is getattr(defined_in, name), name
        assert sorted(package.__all__) == sorted(set(package.__all__))


def test_unknown_name_is_an_attribute_error():
    for package in map(importlib.import_module, LAZY_PACKAGES):
        assert not hasattr(package, "no_such_name")


def test_quickstart_doctest_runs():
    results = doctest.testmod(repro)
    assert results.attempted > 0 and results.failed == 0


def test_import_repro_loads_no_subpackage():
    """Fresh interpreter (``-B``: no ``.pyc`` left in ``src/``): a program
    that never touches the experiments does not import them."""
    probe = (
        "import sys, repro;"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')));"
        "import repro.sim.engine;"
        "print('repro.experiments' in sys.modules, 'repro.scenarios' in sys.modules)"
    )
    assert run_fresh(probe)[:2] == ["[]", "False False"]


def test_the_cli_parser_generates_no_code():
    """``import repro.cli`` and its parser load no experiment module and
    so no ``dataclasses`` (nor the ``inspect`` it drags in): each
    experiment command imports its module when it runs."""
    probe = (
        "import sys, repro.cli;"
        "repro.cli.build_parser();"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)),"
        " sorted(m for m in sys.modules if m.startswith('repro.experiments.')))"
    )
    assert run_fresh(probe)[0] == "[] []"


def test_a_serial_rep_never_imports_multiprocessing_and_a_pooled_campaign_still_does():
    """What every rep imports leaves ``multiprocessing`` (and the
    ``pickle`` / ``socket`` / ``selectors`` it drags in) unloaded; the
    pooled branch imports it on demand and runs."""
    probe = (
        "import sys;"
        "import repro.scenarios.presets, repro.scenarios.testbed, repro.scenarios.campaign;"
        "print('multiprocessing' in sys.modules);"
        "from repro.scenarios.campaign import run_campaign;"
        "from repro.scenarios.presets import get_preset;"
        "base = get_preset('figure4', num_prefixes=20, monitored_flows=2);"
        "result = run_campaign(base, {'seed': [1, 2]}, workers=2);"
        "print('multiprocessing' in sys.modules, result.workers,"
        " [row['recovered'] for row in result.scenarios])"
    )
    assert run_fresh(probe)[:2] == ["False", "True 2 [True, True]"]


#: What ``benchmarks/e2e/worker.py`` imports before a rep's setup phase
#: builds anything: the same set, so these probes load what a rep loads.
DFZ_IMPORTS = """
from repro.telemetry.process import peak_rss_mb
from repro.bgp.rib import CompactPeerRib
from repro.core.vnh_allocator import DEFAULT_VMAC_BASE, VnhAllocator
from repro.net.addresses import IPv4Address
from repro.routes.prefix_gen import PrefixGenerator
from repro.sim.engine import Simulator
from repro.supercharge.engine import RemoteRepointEngine
from repro.supercharge.planner import RemoteGroupPlanner
from repro.supercharge.sharding import shard_of_key, shard_vnh_pool
"""
LAB_IMPORTS = """
from repro.telemetry.process import peak_rss_mb
from repro.scenarios.presets import get_preset
from repro.scenarios.spec import failure_campaign
from repro.scenarios.failures import FailureInjector
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator
"""


def test_a_dfz_build_shard_loads_no_openflow_rest_export_or_pool_code():
    """A planner shard pushes to no switch: the import set of a
    ``dfz-build`` rep plus one shard build (table load, primary withdraw,
    repoint) loads nothing of the OpenFlow/REST stack, no exporter and no
    ``multiprocessing``, and the build itself imports nothing."""
    probe = DFZ_IMPORTS + """
import json, sys
from repro.supercharge.sharding import ShardWorkSpec, build_shard
before = set(sys.modules)
peers = ("9.0.0.1",) + tuple(f"9.0.1.{i}" for i in range(1, 9))
result = build_shard(ShardWorkSpec(shard=0, num_shards=4, peers=peers, prefix_count=2000, seed=1))
print(json.dumps({
    "loaded": sorted(m for m in sys.modules if m.startswith(("repro.", "multiprocessing"))),
    "late": sorted(set(sys.modules) - before),
    "repointed": result.groups_repointed,
    "codegen": sorted({"dataclasses", "inspect"} & set(sys.modules)),
}))
"""
    report = json.loads(run_fresh(probe)[0])
    unwanted = [
        name
        for name in report["loaded"]
        if name.startswith(("repro.openflow.", "multiprocessing"))
        or name in ("repro.core.rest_api", "repro.core.flow_provisioner", "repro.telemetry.export")
    ]
    assert unwanted == []
    assert report["late"] == []
    assert report["repointed"] > 0
    assert report["codegen"] == []


def test_an_mrt_backed_shard_generates_no_code(tmp_path):
    """A shard that streams its table from an MRT dump (the records of
    ``repro.routes.mrt``) loads neither ``dataclasses`` nor ``inspect``."""
    from repro.net.addresses import IPv4Address
    from repro.routes.mrt import MrtPeer, write_rib
    from repro.routes.ris_feed import synthetic_full_table

    peer = IPv4Address("10.0.0.2")
    path = tmp_path / "rib.mrt"
    write_rib(str(path), synthetic_full_table(40, seed=3), MrtPeer(peer, peer, 65001))
    probe = """
import json, sys
from repro.supercharge.sharding import ShardWorkSpec, build_shard
spec = ShardWorkSpec(shard=0, num_shards=1, peers=(sys.argv[1], "10.0.0.3"), mrt_path=sys.argv[2])
result = build_shard(spec)
print(json.dumps({
    "loaded": result.prefixes_loaded,
    "codegen": sorted({"dataclasses", "inspect"} & set(sys.modules)),
}))
"""
    report = json.loads(run_fresh(probe, str(peer), str(path))[0])
    assert report == {"loaded": 40, "codegen": []}


LAB_PROBE = LAB_IMPORTS + """
import json, sys
spec = eval(sys.argv[1])
sim = Simulator(seed=spec.seed)
lab = build_scenario(sim, spec)
lab.start()
lab.load_feeds()
ready = set(sys.modules)
converged = lab.wait_converged(timeout=600.0)
lab.setup_monitoring()
FailureInjector(lab).arm()
lab.start_churn()
horizon = max(spec.failure_horizon, lab.churn_horizon)
if horizon > 0:
    sim.run_for(horizon + 0.05)
recovered = lab.wait_recovered(timeout=600.0)
print(json.dumps({
    "loaded": sorted(m for m in ready if m.startswith("repro.")),
    "late": sorted(set(sys.modules) - ready),
    "ok": [converged, recovered],
    "codegen": sorted({"dataclasses", "inspect"} & set(sys.modules)),
}))
"""

#: Modules no lab shape loads: the campaign runner and the exporters
#: belong to whoever aggregates or renders runs, not to a run.
NOT_IN_ANY_LAB = ("repro.scenarios.campaign", "repro.telemetry.export")


@pytest.mark.parametrize(
    "spec, absent, present",
    [
        (
            "get_preset('figure4-standalone', num_prefixes=200)",
            NOT_IN_ANY_LAB + (
                "repro.core.", "repro.supercharge.", "repro.openflow.controller_channel",
            ),
            (),
        ),
        (
            "get_preset('figure4', num_prefixes=200)",
            NOT_IN_ANY_LAB + ("repro.supercharge.",),
            ("repro.core.controller",),
        ),
        (
            "get_preset('ris-churn', num_prefixes=200, num_providers=3, remote_groups=True,"
            " churn_rate_ups=1000.0, churn_withdraw_fraction=0.3,"
            " failures=failure_campaign('link_down', at=0.7))",
            NOT_IN_ANY_LAB,
            ("repro.supercharge.engine", "repro.supercharge.planner"),
        ),
    ],
    ids=["figure4-standalone", "figure4", "ris-churn-remote"],
)
def test_a_lab_imports_only_what_its_spec_chose_and_nothing_after_load_feeds(
    spec, absent, present
):
    """The controller stack is imported when a spec is supercharged, remote
    supercharge when it sets ``remote_groups``; no lab shape loads
    ``dataclasses`` or ``inspect``; and every import a rep does lands in
    its setup phase: ``sys.modules`` after ``load_feeds()`` is
    ``sys.modules`` after ``wait_recovered()``."""
    report = json.loads(run_fresh(LAB_PROBE, spec)[0])
    assert report["ok"] == [True, True]
    assert [m for m in report["loaded"] if m.startswith(absent)] == []
    assert [m for m in present if m not in report["loaded"]] == []
    assert report["late"] == []
    assert report["codegen"] == []


def test_importing_one_telemetry_module_loads_no_other():
    probe = (
        "import sys, repro.telemetry.process;"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    assert run_fresh(probe)[0] == "['repro', 'repro.telemetry', 'repro.telemetry.process']"
