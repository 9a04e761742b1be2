"""Committed baseline of grandfathered findings.

The baseline lets the linter gate CI on *new* findings from day one
without first rewriting every legacy site: known findings are recorded
once (``cli lint --write-baseline``), committed, and matched against
future runs.  Matching is by fingerprint — ``(path, rule, stripped
source line)``, with a count per fingerprint — so unrelated edits that
shift line numbers do not invalidate the baseline, while *touching the
flagged line itself* does (the finding resurfaces and must be fixed,
suppressed, or re-baselined consciously).

The file format is deliberately boring JSON, sorted on every axis, so a
baseline update is a reviewable one-hunk diff.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.analysis.core import Finding

BASELINE_VERSION = 1

_Fingerprint = Tuple[str, str, str]


@dataclass
class Baseline:
    """Multiset of grandfathered finding fingerprints."""

    counts: Dict[_Fingerprint, int] = field(default_factory=dict)

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        counts: Dict[_Fingerprint, int] = {}
        for finding in findings:
            counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
        return cls(counts=counts)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Baseline":
        """Read a baseline file (missing file = empty baseline)."""
        file_path = Path(path)
        if not file_path.exists():
            return cls()
        data = json.loads(file_path.read_text(encoding="utf-8"))
        version = data.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"unsupported baseline version {version!r} in {file_path}"
                f" (expected {BASELINE_VERSION})"
            )
        counts: Dict[_Fingerprint, int] = {}
        for entry in data.get("entries", []):
            fingerprint = (entry["path"], entry["rule"], entry["line_text"])
            counts[fingerprint] = counts.get(fingerprint, 0) + int(
                entry.get("count", 1)
            )
        return cls(counts=counts)

    def save(self, path: Union[str, Path]) -> None:
        """Write the baseline (sorted, one-hunk-diffable)."""
        entries = [
            {
                "path": fingerprint[0],
                "rule": fingerprint[1],
                "line_text": fingerprint[2],
                "count": count,
            }
            for fingerprint, count in sorted(self.counts.items())
        ]
        payload = {"version": BASELINE_VERSION, "entries": entries}
        Path(path).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    def partition(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], List[Finding]]:
        """Split ``findings`` into ``(new, baselined)``.

        Each baseline fingerprint absorbs at most ``count`` findings, so
        *adding* a second hazard on a line identical to a grandfathered
        one still surfaces as new.
        """
        remaining = dict(self.counts)
        new: List[Finding] = []
        matched: List[Finding] = []
        for finding in findings:
            left = remaining.get(finding.fingerprint, 0)
            if left > 0:
                remaining[finding.fingerprint] = left - 1
                matched.append(finding)
            else:
                new.append(finding)
        return new, matched
