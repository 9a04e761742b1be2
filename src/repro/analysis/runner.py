"""File collection, rule dispatch and report formatting.

``lint_paths`` is the programmatic entry point (``cli lint`` and the
self-lint test both call it); ``lint_source`` is the string-level
primitive the rule tests drive fixture snippets through.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Sequence, Union

from repro.analysis.config import DEFAULT_RULE_SETTINGS
from repro.analysis.core import Finding, ModuleSource
from repro.analysis.rules import RULE_CLASSES

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".mypy_cache", ".ruff_cache"})


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    """Yield ``.py`` files under ``paths`` in sorted, deterministic order."""
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            if path.suffix == ".py":
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield Path(dirpath) / name


def lint_source(source: str, path: str = "<string>") -> List[Finding]:
    """Lint one source string as if it lived at ``path``.

    Returns the *unsuppressed* findings, sorted by location.  A syntax
    error yields a single ``DET000`` finding (a file the linter cannot
    parse cannot be certified).
    """
    module = ModuleSource(path, source)
    if module.tree is None:
        error = module.syntax_error
        line = error.lineno if error is not None and error.lineno else 1
        column = (error.offset or 1) - 1 if error is not None else 0
        return [
            Finding(
                module.path, line, column, "DET000",
                f"file does not parse: {error and error.msg}",
            )
        ]
    findings = {
        finding
        for rule_class in RULE_CLASSES
        if DEFAULT_RULE_SETTINGS[rule_class.CODE].applies_to(module.path)
        for finding in rule_class().check(module)
        if not module.suppressions.covers(finding)
    }
    return sorted(findings)


class LintReport(NamedTuple):
    """Outcome of one lint run."""

    findings: List[Finding]
    files_checked: int

    @property
    def clean(self) -> bool:
        """Gate condition: no findings."""
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        """Primitive representation for ``cli lint --json``."""
        return {
            "files_checked": self.files_checked,
            "clean": self.clean,
            "findings": [finding._asdict() for finding in self.findings],
        }

    def render_text(self) -> str:
        """The human report: findings, then a one-line summary."""
        lines = [finding.render() for finding in self.findings]
        lines.append(f"{self.files_checked} files checked: {len(self.findings)} finding(s)")
        return "\n".join(lines)


def lint_paths(paths: Sequence[Union[str, Path]]) -> LintReport:
    """Lint every Python file under ``paths``.

    Paths in findings are kept as given (relative in, relative out) with
    POSIX separators.
    """
    findings: List[Finding] = []
    files_checked = 0
    for file_path in iter_python_files(paths):
        files_checked += 1
        source = file_path.read_text(encoding="utf-8")
        findings.extend(lint_source(source, path=file_path.as_posix()))
    return LintReport(sorted(findings), files_checked)
