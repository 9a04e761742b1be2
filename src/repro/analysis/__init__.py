"""Determinism linter: AST-based sim-purity analysis.

Everything this reproduction reports rests on one invariant: campaigns
are byte-identical across serial/pooled/rerun, telemetry on/off, and
sharded merges.  This package enforces the
invariant *statically* — before a campaign runs — with a small rule
engine over the Python AST:

* :mod:`repro.analysis.rules` — the DET001–DET006 hazard catalog
  (unseeded randomness, wall clocks, unsorted set iteration, ``id()``
  keys, environment reads, telemetry passivity);
* :mod:`repro.analysis.core` — findings, ``# detlint:`` suppressions,
  the module model;
* :mod:`repro.analysis.baseline` — committed grandfather list, so the
  gate bites on *new* findings only;
* :mod:`repro.analysis.runner` — file collection and reports.

Run it as ``python -m repro.cli lint`` (text or ``--json``; exit 1 on
any non-baselined finding).  The contract and the rule rationale live in
``docs/static_analysis.md``.
"""

from __future__ import annotations

from repro.analysis.baseline import Baseline
from repro.analysis.config import ALL_RULES, DEFAULT_RULE_SETTINGS, LintConfig, RuleSettings
from repro.analysis.core import Finding, ModuleSource, Suppressions, scan_suppressions
from repro.analysis.rules import RULE_CLASSES, RULES_BY_CODE, Rule
from repro.analysis.runner import LintReport, iter_python_files, lint_paths, lint_source

__all__ = [
    "ALL_RULES",
    "Baseline",
    "DEFAULT_RULE_SETTINGS",
    "Finding",
    "LintConfig",
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
