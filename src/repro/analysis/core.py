"""Core of the determinism linter: findings, suppressions, module model.

The linter's unit of work is a :class:`ModuleSource` — one parsed Python
file plus its raw lines and the ``# detlint:`` suppression comments
scanned out of them.  Rules (see :mod:`repro.analysis.rules`) walk the
AST and yield :class:`Finding` records; the runner then drops findings
that are suppressed inline or matched by the committed baseline
(:mod:`repro.analysis.baseline`).

Suppression grammar (same-line, ``noqa``-style; the first example is
the wall-clock microbench in ``experiments/controller_bench.py``)::

    started = time.perf_counter()  # detlint: disable=DET002

    # detlint: disable-file=DET002 -- whole-file exemption (first 10 lines)

A finding's *fingerprint* is ``(path, rule, stripped source line)`` — no
line number — so baselines survive unrelated edits that shift lines.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

#: Matches one suppression comment.  Rule lists are comma separated; an
#: optional ``-- rationale`` trailer documents *why* (encouraged, unchecked).
_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*disable(?P<scope>-file)?\s*=\s*"
    r"(?P<rules>[A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*)"
)

#: ``disable-file`` comments are honoured only this close to the top, so
#: a whole-file exemption is visible where reviewers look for it.
FILE_SUPPRESSION_WINDOW = 10


@dataclass(frozen=True)
class Finding:
    """One determinism hazard at one source location."""

    rule: str
    path: str
    line: int
    column: int
    message: str
    #: The stripped source line — the content half of the baseline
    #: fingerprint (line *numbers* drift, line *text* rarely does).
    line_text: str

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Baseline identity: ``(path, rule, line text)``."""
        return (self.path, self.rule, self.line_text)

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.column, self.rule)

    def to_dict(self) -> Dict[str, object]:
        """Primitive representation (``cli lint --json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "line_text": self.line_text,
        }

    def render(self) -> str:
        """One-line human form: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


@dataclass(frozen=True)
class Suppressions:
    """Inline ``# detlint:`` directives scanned from one file."""

    file_level: FrozenSet[str]
    by_line: Dict[int, FrozenSet[str]]

    def covers(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by an inline directive."""
        if finding.rule in self.file_level:
            return True
        return finding.rule in self.by_line.get(finding.line, frozenset())


def scan_suppressions(source: str) -> Suppressions:
    """Extract suppression directives from raw source text.

    Line-level directives apply to findings reported *on that physical
    line* (a rule reports multi-line constructs at their first line, so
    the directive rides on the opening line).
    """
    file_level: set = set()
    by_line: Dict[int, FrozenSet[str]] = {}
    for number, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        if match.group("scope"):
            if number <= FILE_SUPPRESSION_WINDOW:
                file_level.update(rules)
            # A disable-file buried deep in the file is ignored rather
            # than silently honoured: exemptions must be discoverable.
        else:
            by_line[number] = by_line.get(number, frozenset()) | rules
    return Suppressions(file_level=frozenset(file_level), by_line=by_line)


class ModuleSource:
    """One parsed module: path, source, AST, suppressions."""

    def __init__(self, path: str, source: str) -> None:
        #: POSIX-style path as reported in findings and matched by the
        #: per-rule ``include``/``allow`` globs.
        self.path = path.replace("\\", "/")
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.suppressions = scan_suppressions(source)
        self.syntax_error: Optional[SyntaxError] = None
        try:
            self.tree: Optional[ast.Module] = ast.parse(source)
        except SyntaxError as error:
            self.tree = None
            self.syntax_error = error

    def line_text(self, line: int) -> str:
        """Stripped source text of 1-indexed ``line`` (for fingerprints)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        return Finding(
            rule=rule,
            path=self.path,
            line=line,
            column=column,
            message=message,
            line_text=self.line_text(line),
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def import_table(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import time as t`` maps ``t -> time``; ``from datetime import
    datetime as dt`` maps ``dt -> datetime.datetime``.  Imports at any
    nesting level count (a function-local ``import time`` is still a
    wall-clock dependency).
    """
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else alias.name.split(".")[0]
                table[local] = origin
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never alias stdlib clocks
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{node.module}.{alias.name}"
    return table


def resolve_call_target(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The fully-qualified dotted target of an expression, if resolvable.

    ``t.perf_counter`` with ``import time as t`` resolves to
    ``time.perf_counter``; ``dt.now`` with ``from datetime import
    datetime as dt`` resolves to ``datetime.datetime.now``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin
