#!/usr/bin/env python3
"""Compare two sets of runs (``run.py --out A.json`` / ``B.json``).

Per workload and end-to-end metric: both medians with quartiles, the delta
as a share of A's median (positive = B is worse) and a verdict against the
metric's bound —

``ok``          B's median is no worse than A's by more than the bound;
``worse``       it is;
``unresolved``  it is not, but a set's own spread (inter-quartile range
                over its median) exceeds the bound, so "unchanged" cannot
                be claimed — unless every rep of B beats every rep of A.

The exact results (``sim_convergence_ms``, ``flow_mods_pushed``,
``failed_frac``) and every count in the per-layer report must be identical
when the two sets ran the same seed at the same size: ``differs`` is
reported like ``worse``.  The per-layer ``self_s`` deltas follow, so a
regression names its layer.  Exit status 1 on any ``worse``/``differs``.

Usage::

    python benchmarks/e2e/compare.py A.json B.json
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

import definitions as defs


def spread(summary: Dict[str, Any]) -> float:
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Dict[str, Any]:
    """Delta and verdict of one workload x end-to-end metric."""
    sign = 1.0 if better == "lower" else -1.0
    delta = sign * (b["median"] - a["median"]) / a["median"]
    if better == "lower":
        b_always_better = max(b["values"]) < min(a["values"])
    else:
        b_always_better = min(b["values"]) > max(a["values"])
    if delta > bound:
        label = "worse"
    elif max(spread(a), spread(b)) > bound and not b_always_better:
        label = "unresolved"
    else:
        label = "ok"
    return {"delta": delta, "verdict": label}


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    same_inputs = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    report: Dict[str, Any] = {"same_inputs": same_inputs, "workloads": {}}
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        rows: Dict[str, Any] = {"end_to_end": {}, "exact": {}, "layers": {}, "counts": []}
        for metric, _unit, better, bound in defs.END_TO_END:
            if "end_to_end" not in wa or "end_to_end" not in wb:
                continue
            ma, mb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            rows["end_to_end"][metric] = dict(
                verdict(ma, mb, better, bound),
                a=ma["median"], b=mb["median"], a_iqr=(ma["q1"], ma["q3"]),
                b_iqr=(mb["q1"], mb["q3"]), bound=bound,
            )
        for metric, _unit, _better in defs.EXACT_END_TO_END:
            va, vb = wa["exact"][metric], wb["exact"][metric]
            same = va == vb or (metric != "failed_frac" and not same_inputs)
            rows["exact"][metric] = {"a": va, "b": vb, "verdict": "ok" if same else "differs"}
        la, lb = wa.get("per_layer", {}), wb.get("per_layer", {})
        for layer in defs.LAYERS + ("harness",):
            key = f"{layer}.self_s"
            if key in la and key in lb:
                rows["layers"][key] = {"a": la[key], "b": lb[key], "delta_s": lb[key] - la[key]}
        if same_inputs:
            rows["counts"] = sorted(
                key for key in set(la) & set(lb)
                if not defs.is_host_metric(key) and la[key] != lb[key]
            )
        report["workloads"][name] = rows
    return report


def failures(report: Dict[str, Any]) -> List[str]:
    found = []
    for name, rows in report["workloads"].items():
        for metric, row in list(rows["end_to_end"].items()) + list(rows["exact"].items()):
            if row["verdict"] in ("worse", "differs"):
                found.append(f"{name} {metric}: {row['verdict']}")
        found.extend(f"{name} {key}: differs" for key in rows["counts"])
    return found


def render(report: Dict[str, Any]) -> str:
    lines = []
    for name, rows in report["workloads"].items():
        lines.append(f"== {name}")
        for metric, row in rows["end_to_end"].items():
            lines.append(
                f"  {metric:<20} A {row['a']:>12.4f} [{row['a_iqr'][0]:.4f}, {row['a_iqr'][1]:.4f}]"
                f"  B {row['b']:>12.4f} [{row['b_iqr'][0]:.4f}, {row['b_iqr'][1]:.4f}]"
                f"  delta {row['delta']:+.3f} (bound {row['bound']})  {row['verdict']}"
            )
        for metric, row in rows["exact"].items():
            lines.append(f"  {metric:<20} A {row['a']!s:>12}  B {row['b']!s:>12}  {row['verdict']}")
        for key, row in rows["layers"].items():
            lines.append(
                f"  {key:<20} A {row['a']:>12.4f}  B {row['b']:>12.4f}  delta {row['delta_s']:+.4f} s"
            )
        for key in rows["counts"]:
            lines.append(f"  {key:<20} differs (counts must repeat exactly)")
    if not report["same_inputs"]:
        lines.append("(different seed or size: exact results and counts are not compared)")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("Usage::")[1].strip(), file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    report = compare(a, b)
    print(render(report))
    found = failures(report)
    for line in found:
        print(f"FAILED {line}")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
