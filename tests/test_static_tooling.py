"""Static gates: CI-only mypy/ruff conformance, and the periphery audit.

mypy and ruff are CI-only: ``.github/workflows/ci.yml`` installs both on
the runner and no development container will ever have them (no network).
Their two tests therefore skip — not fail — when the tool is absent, and
otherwise run what the CI lint job runs: mypy over the strict allowlist
pyproject.toml declares (CI's bare ``python -m mypy`` checks the whole
package, but only allowlisted modules can report), and ruff's critical
rules.

The audit guards need no tool: every module under ``src/repro`` is on the
path of a CLI command (or is allow-listed with its reason), and the twelve
substrate packages re-export nothing.
"""

import ast
import os
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
        pytest.skip("CI-only: mypy/ruff are installed by .github/workflows/ci.yml")
    result = run_tool(sys.executable, "-m", "mypy", *mypy_targets())
    assert result.returncode == 0, result.stdout


def test_ruff_critical_rules_are_clean():
    if shutil.which("ruff") is None:
        pytest.skip("CI-only: mypy/ruff are installed by .github/workflows/ci.yml")
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


#: Modules no ``repro.cli`` command imports, each with what reaches it
#: instead.  Anything else under ``src/repro`` that the CLI does not load
#: has no user and should leave ``src/`` (ROADMAP item 8).
REACHED_ANOTHER_WAY = {
    # benchmarks/bench_scale_worker.py and the frozen e2e ``dfz-build``.
    "repro.supercharge.sharding",
    # Only through ``sharding``'s ``mrt_path`` (a real collector file,
    # which no offline preset has).
    "repro.routes.mrt",
}

#: Packages whose ``__init__`` is a docstring: names are imported from the
#: module that defines them.
FACADE_PACKAGES = (
    "sim", "net", "bgp", "router", "openflow", "core", "routes",
    "experiments", "supercharge", "traffic", "arp", "bfd",
)


def module_names():
    package_root = REPO_ROOT / "src" / "repro"
    for path in sorted(package_root.rglob("*.py")):
        parts = path.relative_to(package_root.parent).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def test_every_module_is_reached_by_the_cli():
    """``import repro.cli`` loads every module file under ``src/repro``
    but the allow-listed ones — in a fresh interpreter, so what other
    tests imported does not count."""
    probe = (
        "import sys, repro.cli;"
        "print('\\n'.join(m for m in sys.modules if m.startswith('repro')))"
    )
    # ``-B``: leave no ``.pyc`` in ``src/`` — the e2e benchmark compares
    # trees in the same bytecode state.
    result = subprocess.run(
        [sys.executable, "-B", "-c", probe],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    loaded = set(result.stdout.split())
    unreached = {name for name in module_names() if name not in loaded}
    assert unreached == REACHED_ANOTHER_WAY


def test_facade_packages_are_docstring_only():
    for package in FACADE_PACKAGES:
        tree = ast.parse((REPO_ROOT / "src" / "repro" / package / "__init__.py").read_text())
        assert ast.get_docstring(tree), package
        assert len(tree.body) == 1, f"repro.{package} re-exports again"


def test_one_module_owns_the_collector():
    """The collector policy (``Simulator.run`` pauses it, the table builds
    go through ``collector_paused``) is spelled once: no other module
    under ``src/repro`` imports ``gc``, so it cannot be re-decided per
    call site."""
    package_root = REPO_ROOT / "src" / "repro"
    importers = set()
    for path in package_root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module]
            else:
                continue
            if "gc" in imported:
                importers.add(path.relative_to(package_root).as_posix())
    assert importers == {"sim/engine.py"}
