"""The top-level package: every name in ``repro.__all__`` imports, and
``import repro`` itself loads nothing a caller did not ask for."""

import doctest
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves_to_its_defining_module():
    for name in repro.__all__:
        namespace = {}
        exec(f"from repro import {name}", namespace)
        value = namespace[name]
        assert value is getattr(repro, name)
        if name != "__version__":
            defined_in = sys.modules[repro._EXPORTS[name]]
            assert value is getattr(defined_in, name), name
    assert sorted(repro.__all__) == sorted(set(repro.__all__))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(repro, "no_such_name")


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
    result = subprocess.run(
        [sys.executable, "-B", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    assert result.stdout.split("\n")[:2] == ["[]", "False False"]


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
    result = subprocess.run(
        [sys.executable, "-B", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    assert result.stdout.split("\n")[:2] == ["False", "True 2 [True, True]"]
