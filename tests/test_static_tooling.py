"""Static gates: CI-only mypy/ruff conformance, and the periphery audit.

mypy and ruff are CI-only: ``.github/workflows/ci.yml`` installs both on
the runner and no development container will ever have them (no network).
Their two tests therefore skip — not fail — when the tool is absent, and
otherwise run what the CI lint job runs: mypy over the strict allowlist
pyproject.toml declares (CI's bare ``python -m mypy`` checks the whole
package, but only allowlisted modules can report), and ruff's critical
rules.

The audit guards need no tool: every module under ``src/repro`` is on the
path of a CLI command (or is allow-listed with its reason), the twelve
substrate packages re-export nothing, no module keeps a top-level import
it never uses, and no switch has one position: every ``ScenarioSpec``
field, and every option of a component (each defaulted field of a
``*Config`` / ``*Spec`` NamedTuple and each defaulted ``__init__``
keyword of a public class under ``src/repro``), is turned by something
other than a test or an example (or is allow-listed with its reason).
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


#: One tiny run of each experiment command: each imports its module when
#: it runs, so only running it reaches the module.
EXPERIMENT_RUNS = (
    ["figure5", "--prefixes", "20", "--repetitions", "1", "--flows", "2"],
    ["microbench", "--updates", "10"],
    ["groups", "--peers", "2", "--prefixes", "10"],
    ["ablations", "--prefixes", "20", "--flows", "2"],
    ["detection", "--prefixes", "20", "--flows", "2"],
    ["remote-supercharge", "--prefixes", "20", "--flows", "2"],
)


def test_every_module_is_reached_by_the_cli():
    """``import repro.cli`` plus one ``scenarios run`` of a spec that
    chooses the controller stack and remote supercharge (a lab imports
    those where its spec chooses them), one ``lint --list-rules`` (only
    that command loads the linter) and one tiny run of each experiment
    command loads every module file under ``src/repro`` but the
    allow-listed ones — in a fresh interpreter, so what other tests
    imported does not count."""
    probe = (
        "import contextlib, io, sys, repro.cli\n"
        "argv = ['scenarios', 'run', '--preset', 'remote-supercharge',"
        " '--prefixes', '20', '--flows', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.cli.main(argv) == 0\n"
        "    assert repro.cli.main(['lint', '--list-rules']) == 0\n"
        f"    for argv in {list(EXPERIMENT_RUNS)!r}:\n"
        "        repro.cli.main(argv)\n"
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


def _names_used(tree):
    """Every identifier a module reads, including the ones inside string
    annotations (``Optional["Simulator"]``) and ``__all__`` entries."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expression = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(expression) if isinstance(n, ast.Name))
    return used


def test_no_module_has_an_unused_top_level_import():
    """CI's ruff selects no F401 (and is CI-only, see the module
    docstring); a deletion is exactly what leaves an import behind."""
    package_root = REPO_ROOT / "src" / "repro"
    unused = []
    for path in sorted(package_root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _names_used(tree)
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused.extend(
                f"{path.relative_to(package_root).as_posix()}:{node.lineno} {name}"
                for name in bound
                if name not in used
            )
    assert unused == []


#: ``ScenarioSpec`` fields nothing outside ``tests/`` gives a non-default
#: value, each with why it is a field all the same.  Anything else that no
#: preset, CLI option, experiment or benchmark turns is a switch with one
#: position and should become a constant (ROADMAP item 8).
KNOBS_NOTHING_TURNS = {
    # Terms of the closed-form model (ROADMAP item 3).
    "bfd_multiplier": "detection = bfd_interval x bfd_multiplier",
    "rest_latency": "the push stage's REST term",
    "link_latency": "every hop's propagation term",
    "fib_first_entry_latency": "standalone restoration: the intercept",
    "fib_per_entry_latency": "standalone restoration: the slope",
    "remote_holddown": "the remote decide stage's holddown term",
    # The packet-level reference tests/test_reachability.py checks the
    # analytic monitor against.
    "packet_traffic": "packet-level reference data plane",
    "packet_rate_pps": "its probe rate",
}

#: Calls whose keyword arguments end up in a spec.
SPEC_SINKS = {"ScenarioSpec", "get_preset", "with_overrides", "dict"}


def test_every_scenario_knob_is_turned_by_something():
    """Each ``ScenarioSpec`` field gets a non-default value from a preset,
    a CLI grid axis, or a spec-building call / override dict in
    ``repro.cli``, ``src/repro/experiments`` or ``benchmarks/`` — a value
    the scan can read as the literal default does not count."""
    from repro.cli import GRID_AXES
    from repro.scenarios.presets import PRESETS, get_preset
    from repro.scenarios.spec import ScenarioSpec

    default_spec = ScenarioSpec()
    defaults = default_spec._asdict()
    turned = {"failures" if axis == "failure" else axis for axis in GRID_AXES.values()}
    for name in PRESETS:
        spec = get_preset(name)
        turned.update(f for f, default in defaults.items() if getattr(spec, f) != default)

    def differs(field, node):
        try:
            return ast.literal_eval(node) != defaults[field]
        except ValueError:  # not a literal: computed, so it varies
            return True

    grid_keys = set(defaults) | {"failure"}
    sources = [
        REPO_ROOT / "src" / "repro" / "cli.py",
        *(REPO_ROOT / "src" / "repro" / "experiments").glob("*.py"),
        *(REPO_ROOT / "benchmarks").rglob("*.py"),
    ]
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            pairs = []
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                if callee in SPEC_SINKS:
                    pairs = [(kw.arg, kw.value) for kw in node.keywords if kw.arg]
            elif isinstance(node, ast.Dict) and all(
                # An override or grid dict names spec fields only; a
                # result record that happens to share a key does not.
                isinstance(key, ast.Constant) and key.value in grid_keys
                for key in node.keys
            ):
                pairs = [(key.value, value) for key, value in zip(node.keys, node.values)]
            turned.update(f for f, value in pairs if f in defaults and differs(f, value))
    assert set(defaults) - turned == set(KNOBS_NOTHING_TURNS)


#: Component options nothing outside ``tests/``, ``examples/`` and the
#: frozen ``benchmarks/e2e/`` gives a non-default value, each with why it
#: is an option all the same.  Anything else that no run turns is a switch
#: with one position and should be a module constant (ROADMAP item 8).
OPTIONS_NOTHING_TURNS = {
    # Names benchmarks/e2e/worker.py passes; that directory is the frozen
    # benchmark, so its calls keep the keywords without turning them.
    "RemoteGroupPlanner.int_keys": "unread; the e2e dfz-build rep passes it (ROADMAP 1(b))",
}

#: Where a non-default value counts: the program and its benchmarks.  The
#: e2e benchmark is frozen, so what it passes is pinned, not chosen.
CALLER_ROOTS = ("src", "benchmarks")
FROZEN_CALLERS = ("benchmarks/e2e/",)


def _component_options():
    """Every independently settable value of a component under
    ``src/repro``: each defaulted field of a ``*Config`` / ``*Spec``
    NamedTuple and each defaulted ``__init__`` keyword of a public class,
    as ``{(class, name): default node}``, plus each class's positional
    order and bases (for ``super().__init__`` calls)."""
    options, positions, bases = {}, {}, {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
                continue
            bases[node.name] = [getattr(base, "id", None) for base in node.bases]
            if "NamedTuple" in bases[node.name] and node.name.endswith(("Config", "Spec")):
                fields = [
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                positions[node.name] = [field.target.id for field in fields]
                for field in fields:
                    if field.value is not None:
                        options[node.name, field.target.id] = field.value
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    arguments = item.args
                    ordered = arguments.posonlyargs + arguments.args
                    positions[node.name] = [argument.arg for argument in ordered[1:]]
                    defaulted = ordered[len(ordered) - len(arguments.defaults):]
                    pairs = [*zip(defaulted, arguments.defaults),
                             *zip(arguments.kwonlyargs, arguments.kw_defaults)]
                    for argument, default in pairs:
                        if default is not None:
                            options[node.name, argument.arg] = default
    return options, positions, bases


def _same_value(node, default):
    """Whether a call's argument reads as the option's default; anything
    the scan cannot evaluate (a name, a computation) varies."""
    try:
        return ast.literal_eval(node) == ast.literal_eval(default)
    except ValueError:
        return ast.dump(node) == ast.dump(default)


def _constructions(tree, bases):
    """Every call in ``tree`` with the class names it may construct: its
    callee's, or for a ``super().__init__(...)`` call, its class's bases."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, [getattr(node.func, "id", getattr(node.func, "attr", None))]
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "__init__"
                    and getattr(getattr(node.func.value, "func", None), "id", None) == "super"
                ):
                    yield node, bases.get(cls.name, [])


def _turned_options(options, positions, bases):
    """The options some call in a :data:`CALLER_ROOTS` tree gives a
    non-default value: by keyword, by position, or through a ``**``
    mapping the scan cannot read (so it may set any of them)."""
    turned = set()
    for root in CALLER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*.py")):
            if path.relative_to(REPO_ROOT).as_posix().startswith(FROZEN_CALLERS):
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for call, classes in _constructions(tree, bases):
                for cls in classes:
                    if any(keyword.arg is None for keyword in call.keywords):
                        turned.update(option for option in options if option[0] == cls)
                        continue
                    given = [*zip(positions.get(cls, []), call.args),
                             *((keyword.arg, keyword.value) for keyword in call.keywords)]
                    turned.update(
                        (cls, name) for name, value in given
                        if (cls, name) in options and not _same_value(value, options[cls, name])
                    )
    return turned


def test_every_component_option_is_turned_by_something():
    """Each option of a component (see :func:`_component_options`) gets a
    non-default value from a call in ``src/`` or ``benchmarks/`` — tests
    and examples do not count — or sits in :data:`OPTIONS_NOTHING_TURNS`
    with its reason.  ``ScenarioSpec`` declares its fields on a private
    base and has its own guard above."""
    options, positions, bases = _component_options()
    turned = _turned_options(options, positions, bases)
    unturned = {f"{cls}.{name}" for cls, name in options if (cls, name) not in turned}
    assert unturned == set(OPTIONS_NOTHING_TURNS)
