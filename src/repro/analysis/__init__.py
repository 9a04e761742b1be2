"""Determinism linter: AST checks for the hazards no run can expose.

Everything this reproduction reports rests on one invariant: campaigns
are byte-identical across serial/pooled/rerun, telemetry on/off, hash
seeds and processes.  ``tests/test_determinism.py`` checks it by running
every preset under three hash seeds; this package keeps the checks those
runs cannot replace, as a small rule engine over the Python AST:

* :mod:`repro.analysis.rules` — the rule catalog (``id()``-keyed
  mappings, environment reads);
* :mod:`repro.analysis.config` — each rule's path scope;
* :mod:`repro.analysis.core` — findings, ``# detlint:`` suppressions,
  the module model;
* :mod:`repro.analysis.runner` — file collection and reports.

Run it as ``python -m repro.cli lint`` (text or ``--json``; exit 1 on
any finding).  The contract and the per-rule evidence live in
``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.analysis.config import DEFAULT_RULE_SETTINGS, RuleSettings
from repro.analysis.core import Finding, ModuleSource, Suppressions, scan_suppressions
from repro.analysis.rules import RULE_CLASSES, RULES_BY_CODE, Rule
from repro.analysis.runner import LintReport, iter_python_files, lint_paths, lint_source

__all__ = [
    "DEFAULT_RULE_SETTINGS",
    "Finding",
    "LintReport",
    "ModuleSource",
    "RULES_BY_CODE",
    "RULE_CLASSES",
    "Rule",
    "RuleSettings",
    "Suppressions",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "scan_suppressions",
]
