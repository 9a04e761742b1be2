"""Gated mypy/ruff conformance tests.

The container this repo is usually developed in does not ship mypy or
ruff; CI installs both on the runner.  These tests therefore skip — not
fail — when the tool is absent, and otherwise run what the CI lint job
runs: mypy over the strict allowlist pyproject.toml declares (CI's bare
``python -m mypy`` checks the whole package, but only allowlisted
modules can report), and ruff's critical rules.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def mypy_targets():
    """The strict allowlist as paths, derived from its only copy: the
    [[tool.mypy.overrides]] module list in pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
    targets = []
    for module in config["tool"]["mypy"]["overrides"][0]["module"]:
        path = "src/" + module.replace(".", "/")
        targets.append(path[:-2] if module.endswith(".*") else path + ".py")
    return targets


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
    result = run_tool(sys.executable, "-m", "mypy", *mypy_targets())
    assert result.returncode == 0, result.stdout


def test_ruff_critical_rules_are_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed in this environment (CI installs it)")
    result = run_tool("ruff", "check", "src", "tests", "benchmarks")
    assert result.returncode == 0, result.stdout


def test_pyproject_mypy_allowlist_matches_this_test():
    """Every allowlisted module must resolve to a file or package that
    exists — a deleted module left in pyproject would make the gate
    check nothing for it (or fail on a path that is gone)."""
    targets = mypy_targets()
    assert targets
    missing = [target for target in targets if not (REPO_ROOT / target).exists()]
    assert not missing, missing
