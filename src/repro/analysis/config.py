"""Per-rule configuration for the determinism linter.

Every rule carries a :class:`RuleSettings`: the paths exempt from it by
design (``allow``).  Globs are :mod:`fnmatch` patterns matched against
the POSIX form of the linted file's path, so they work identically for
``src/repro/...`` trees and test fixture directories.

The defaults below *are* this repository's determinism contract — see
``docs/static_analysis.md`` for the rationale behind each entry.
"""

from __future__ import annotations

from fnmatch import fnmatch
from typing import Dict, NamedTuple, Tuple


class RuleSettings(NamedTuple):
    """Scope of one rule."""

    #: Files matching one of these globs are exempt *by design* (they do
    #: not need inline suppressions; the exemption is part of the rule).
    allow: Tuple[str, ...] = ()

    def applies_to(self, path: str) -> bool:
        """Whether the rule runs against ``path`` at all."""
        return not any(fnmatch(path, pattern) for pattern in self.allow)


#: The codebase's hazard contract, rule by rule:
#:
#: * DET004 — no by-design exemptions: an in-process memo that is
#:   genuinely identity-safe carries an inline suppression with a
#:   rationale, so the exemption is visible at the hazard site.
#: * DET005 — environment reads are routed through ``runconfig.py``, the
#:   single sanctioned accessor (read at experiment-setup time only).
DEFAULT_RULE_SETTINGS: Dict[str, RuleSettings] = {
    "DET004": RuleSettings(),
    "DET005": RuleSettings(allow=("*/repro/runconfig.py", "runconfig.py")),
}

