"""Tier-1 smoke test of the end-to-end benchmark (``benchmarks/e2e``).

All four workloads at smoke size (200 prefixes, dfz 5,000), one un-traced
and one traced rep each.  Everything asserted here is a name, a count or
an invariant: no wall-clock ratio or threshold (ROADMAP: those are the
flake suspect), so the three sets may share the two cores.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import compare
import definitions as defs
import run as e2e_run

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    """Sets ``a`` and ``b`` share a seed, ``c`` has another; run together."""
    tmp = tmp_path_factory.mktemp("e2e")
    procs = {}
    for key, seed in (("a", 11), ("b", 11), ("c", 12)):
        out = str(tmp / f"{key}.json")
        command = [sys.executable, RUN, "--smoke", "--reps", "1", "--seed", str(seed), "--out", out]
        procs[key] = (out, subprocess.Popen(command, stdout=subprocess.PIPE, text=True))
    results = {}
    for key, (out, proc) in procs.items():
        stdout, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, stdout
        with open(out, encoding="utf-8") as handle:
            results[key] = {"stdout": stdout, "report": json.load(handle)}
    return results


def test_benchmark_json_is_generated_from_the_definitions():
    with open(os.path.join(e2e_run.REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == e2e_run.benchmark_json()


def test_every_named_metric_is_printed_with_its_unit(sets):
    contract = e2e_run.benchmark_json()
    sections = re.split(r"^== ", sets["a"]["stdout"], flags=re.MULTILINE)[1:]
    assert [s.split()[0] for s in sections] == [w["name"] for w in contract["workloads"]]
    for section in sections:
        for metric in contract["end_to_end"] + contract["per_layer"]:
            pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b"
            assert re.search(pattern, section, flags=re.MULTILINE), (
                f"{metric['name']} [{metric['unit']}] missing under {section.split()[0]}"
            )


def test_no_rep_failed_and_layer_parts_sum_to_the_traced_total(sets):
    for name, workload in sets["a"]["report"]["workloads"].items():
        assert workload["failed"] == 0 and workload["attempted"] == 2, workload["problems"]
        budget = workload["attribution"]
        assert budget["attributed_s"] == pytest.approx(budget["traced_total_s"], rel=0.10), name


def test_predicted_zero_cells(sets):
    layers = {
        name: workload["per_layer"] for name, workload in sets["a"]["report"]["workloads"].items()
    }
    for key in ("core.calls", "supercharge.calls", "core.rib_changes"):
        assert layers["fig4-standalone"][key] == 0, key
    for key in ("sim.events", "net.frames", "router.calls", "telemetry.trace_events"):
        assert layers["dfz-build"][key] == 0, key
    assert layers["fig4-sc"]["core.rib_changes"] > 0
    assert layers["churn-failover"]["supercharge.prefixes_loaded"] > 0
    assert layers["dfz-build"]["supercharge.prefixes_loaded"] == defs.workload_size(
        "dfz-build", smoke=True
    )


def test_same_seed_repeats_exactly_and_another_seed_differs(sets):
    a, b, c = (sets[key]["report"]["workloads"] for key in "abc")
    for name in defs.WORKLOADS:
        assert a[name]["record"] == b[name]["record"], name
        assert a[name]["exact"] == b[name]["exact"], name
        counts = {k: v for k, v in a[name]["per_layer"].items() if not defs.is_host_metric(k)}
        assert counts == {k: b[name]["per_layer"][k] for k in counts}, name
        assert a[name]["record"] != c[name]["record"], name
    verdict = compare.compare(sets["a"]["report"], sets["b"]["report"])
    assert verdict["same_inputs"]
    assert not [line for line in compare.failures(verdict) if "differs" in line]


def test_runner_exits_non_zero_when_a_check_fails(monkeypatch, capsys):
    # Injected failure: no supercharged run converges in a microsecond.
    monkeypatch.setattr(defs, "MAX_SC_CONVERGENCE_MS", 0.001)
    status = e2e_run.main(["--workload", "fig4-sc", "--smoke", "--seconds", "0", "--seed", "11"])
    assert status != 0
    assert "sim_convergence_ms" in capsys.readouterr().out


def test_a_stale_boundary_row_fails_the_install_loudly():
    from boundaries import Boundary
    from tracer import BoundaryError, Tracer

    stale = Boundary("repro.sim.engine", "Simulator", "schedule_sometime")
    with pytest.raises(BoundaryError, match="schedule_sometime"):
        Tracer(started=0.0).install([stale])
