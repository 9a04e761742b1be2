"""Gated mypy/ruff conformance tests.

The container this repo is usually developed in does not ship mypy or
ruff; CI installs both on the runner.  These tests therefore skip — not
fail — when the tool is absent, and otherwise assert the same commands
the CI lint job runs.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: The mypy strict allowlist, as file paths (kept in sync with the
#: [[tool.mypy.overrides]] module list in pyproject.toml).
MYPY_TARGETS = [
    "src/repro/routes/prefixcodec.py",
    "src/repro/bgp/rib.py",
    "src/repro/router/fib.py",
    "src/repro/openflow/flow_table.py",
    "src/repro/supercharge/sharding.py",
    "src/repro/telemetry",
    "src/repro/analysis",
    "src/repro/runconfig.py",
]


def run_tool(*argv):
    return subprocess.run(
        argv,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def test_mypy_allowlist_is_clean():
    if shutil.which("mypy") is None:
        pytest.skip("mypy not installed in this environment (CI installs it)")
    result = run_tool(sys.executable, "-m", "mypy", *MYPY_TARGETS)
    assert result.returncode == 0, result.stdout


def test_ruff_critical_rules_are_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed in this environment (CI installs it)")
    result = run_tool("ruff", "check", "src", "tests", "benchmarks")
    assert result.returncode == 0, result.stdout


def test_pyproject_mypy_allowlist_matches_this_test():
    """The file list above must track pyproject's module allowlist."""
    try:
        import tomllib  # Python 3.11+
    except ImportError:
        tomllib = None
    if tomllib is None:
        pytest.skip("tomllib unavailable on this interpreter")
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    overrides = config["tool"]["mypy"]["overrides"][0]["module"]
    expected = {
        "repro.routes.prefixcodec",
        "repro.bgp.rib",
        "repro.router.fib",
        "repro.openflow.flow_table",
        "repro.supercharge.sharding",
        "repro.telemetry.*",
        "repro.analysis.*",
        "repro.runconfig",
    }
    assert set(overrides) == expected
