"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's reported results.  The
pytest-benchmark timing numbers measure the *harness* (wall-clock cost of
re-running the experiment); the reproduced *result* — convergence times in
simulated seconds, processing-time percentiles, group counts — is attached
to ``benchmark.extra_info`` and printed at the end of the run, so a single
``pytest benchmarks/ --benchmark-only`` regenerates every figure and table.

One switch sizes every bench: ``REPRO_FULL_SCALE`` (:data:`FULL_SCALE`).
Unset, the benches run at smoke sizes and assert only what repeats exactly
— simulated times, counts, structure, traced bytes, RSS ceilings; host
times and rates are printed, never compared.  Set, they run at full size
(100k-prefix LPM, the 1M scale point, the long remote curve, 2 x 500k
controller updates, the paper's Figure 5 axis) and the host-time asserts
are on as well.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List

import pytest

from repro.runconfig import env_flag

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The committed full-size dataplane + telemetry report: what a run is
#: printed next to (docs/performance.md, "The tracked baseline").
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_dataplane.json")

#: The one size/mode switch of the bench suite (see the module docstring).
FULL_SCALE = env_flag("REPRO_FULL_SCALE")

_REPORT_LINES: List[str] = []


def run_bench_worker(worker_path: str, config: Dict) -> Dict:
    """Run a JSON-in/JSON-out bench worker in a fresh interpreter.

    Shared fresh-subprocess scaffolding for the worker benches (see
    docs/performance.md): ``src`` goes on ``PYTHONPATH``, the config
    travels as one JSON argv, stderr is surfaced on failure, and stdout
    is parsed as the report."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, worker_path, json.dumps(config)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        check=False,
    )
    if completed.returncode != 0:
        # A real raise, not an assert: this helper also serves the
        # bench_trajectory CLI, where -O would strip an assert and lose
        # the worker's stderr.
        raise RuntimeError(
            f"bench worker {os.path.basename(worker_path)} failed"
            f" (exit {completed.returncode}):\n{completed.stderr}"
        )
    return json.loads(completed.stdout)


def load_baseline() -> Dict:
    """The committed ``BENCH_dataplane.json``."""
    with open(BASELINE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: str, report: Dict) -> None:
    """Write ``report`` as sorted-key, newline-terminated JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def persist_report(variable: str, report: Dict) -> None:
    """Write ``report`` to the path in the ``*_REPORT`` environment
    variable ``variable``, if set: CI feeds these files to
    benchmarks/bench_trajectory.py instead of measuring a second time."""
    path = os.environ.get(variable)
    if path:
        write_json(path, report)


def record_report(title: str, body: str) -> None:
    """Queue a reproduction report to be printed at the end of the session."""
    _REPORT_LINES.append(f"\n=== {title} ===\n{body}")


@pytest.hookimpl(trylast=True)
def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # pytest loads this file as ``conftest``; the benches import it as
    # ``benchmarks.conftest``, a second module object, and queue there.
    from benchmarks.conftest import _REPORT_LINES as queued

    if not queued:
        return
    terminalreporter.write_sep("=", "paper reproduction results")
    for block in queued:
        terminalreporter.write_line(block)
