"""Core of the determinism linter: findings, suppressions, module model.

The linter's unit of work is a :class:`ModuleSource` — one parsed Python
file plus the ``# detlint:`` suppression comments read out of it.  Rules
(see :mod:`repro.analysis.rules`) walk the AST and yield :class:`Finding`
records; the runner drops the findings a suppression covers.

Suppression grammar (same-line, ``noqa``-style, in a real comment: a
string that reads like one is not a directive)::

    value = os.environ.get("X")  # detlint: disable=DET005 -- why
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from typing import Dict, FrozenSet, List, NamedTuple, Optional

#: Matches one suppression comment.  Rule lists are comma separated; an
#: optional ``-- rationale`` trailer documents *why* (encouraged, unchecked).
_SUPPRESS_RE = re.compile(
    r"#\s*detlint:\s*disable\s*=\s*"
    r"(?P<rules>[A-Z][A-Z0-9]*(?:\s*,\s*[A-Z][A-Z0-9]*)*)"
)


class Finding(NamedTuple):
    """One determinism hazard at one source location; fields in sort order."""

    path: str
    line: int
    column: int
    rule: str
    message: str

    def render(self) -> str:
        """One-line human form: ``path:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"


class Suppressions(NamedTuple):
    """Inline ``# detlint:`` directives of one file, by line."""

    by_line: Dict[int, FrozenSet[str]]

    def covers(self, finding: Finding) -> bool:
        """Whether ``finding`` is silenced by a directive on its line."""
        return finding.rule in self.by_line.get(finding.line, frozenset())


def scan_suppressions(source: str) -> Suppressions:
    """Read the suppression directives out of the comments of ``source``.

    A directive applies to findings reported *on its physical line* (a
    rule reports a multi-line construct at its first line, so the
    directive rides on the opening line).
    """
    by_line: Dict[int, FrozenSet[str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is not None:
            line = token.start[0]
            rules = frozenset(part.strip() for part in match.group("rules").split(","))
            by_line[line] = by_line.get(line, frozenset()) | rules
    return Suppressions(by_line)


class ModuleSource:
    """One parsed module: path, AST, suppressions."""

    def __init__(self, path: str, source: str) -> None:
        #: POSIX-style path as reported in findings and matched by the
        #: per-rule ``include``/``allow`` globs.
        self.path = path.replace("\\", "/")
        self.syntax_error: Optional[SyntaxError] = None
        self.suppressions = Suppressions({})
        try:
            self.tree: Optional[ast.Module] = ast.parse(source)
        except SyntaxError as error:
            self.tree = None
            self.syntax_error = error
        else:
            self.suppressions = scan_suppressions(source)

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            self.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            rule,
            message,
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

    ``import os as o`` maps ``o -> os``; ``from os import environ as env``
    maps ``env -> os.environ``.  Imports at any nesting level count (a
    function-local ``import os`` is still an environment dependency).
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
                continue  # relative imports never alias the stdlib
            for alias in node.names:
                local = alias.asname or alias.name
                table[local] = f"{node.module}.{alias.name}"
    return table


def resolve_call_target(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """The fully-qualified dotted target of an expression, if resolvable.

    ``o.getenv`` with ``import os as o`` resolves to ``os.getenv``;
    ``env.get`` with ``from os import environ as env`` resolves to
    ``os.environ.get``.
    """
    dotted = dotted_name(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = imports.get(head)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin
