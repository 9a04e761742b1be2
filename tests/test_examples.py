"""Smoke tests: the runnable demos under ``examples/`` still run."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "script, expected",
    [
        ("quickstart.py", "worst-case convergence"),
        ("redundant_controllers.py", "Router still protected: True"),
    ],
)
def test_example_main_runs(script, expected, capsys):
    runpy.run_path(str(EXAMPLES / script))["main"]()
    assert expected in capsys.readouterr().out
