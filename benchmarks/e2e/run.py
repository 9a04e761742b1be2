#!/usr/bin/env python3
"""End-to-end campaign benchmark: four workloads, phase timings, layer budget.

Two ways in, one measurement loop:

* the whole set — every workload, ``--reps`` un-traced reps plus one
  traced rep each, every metric printed by name with its unit, ``--out``
  for ``compare.py``::

      python benchmarks/e2e/run.py [--seed S] [--reps R] [--out FILE]

* one driver run of one workload (the ``BENCHMARK.json`` contract): reps
  for ``--seconds`` seconds, result as the last stdout line.  ``--trace 0``
  reports the end-to-end metrics from un-traced reps, ``--trace 1`` the
  per-layer metrics from traced reps alternated with un-traced ones::

      python benchmarks/e2e/run.py --workload fig4-sc --seed 7 --seconds 25 --trace 0

Every rep is a fresh ``worker.py`` subprocess, one at a time (closed loop,
one thread, ``workers=1`` everywhere).  The run fails — ``failed`` counts
it, exit status 1 — if a rep raises, times out, breaks an invariant of
``definitions.check_record``, disagrees with its sibling reps on a
deterministic field, or (traced) is not passive.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

import definitions as defs

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
#: Host seconds after which a rep counts as hung.
REP_TIMEOUT_S = 150
#: Fewest reps a median is taken over.
MIN_REPS = 3


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------
def spawn_rep(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one worker; returns its report or ``{"error": ...}``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    spec = dict(spec, spawned_at=time.time())
    try:
        completed = subprocess.run(
            [sys.executable, WORKER, json.dumps(spec)],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=REP_TIMEOUT_S,
            check=False,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S} s"}
    if completed.returncode != 0:
        return {"error": f"exit {completed.returncode}: {completed.stderr.strip()[-2000:]}"}
    try:
        return json.loads(completed.stdout)
    except ValueError:
        return {"error": f"unparseable worker output: {completed.stdout[-500:]!r}"}


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
class WorkloadRun:
    """The reps of one workload and what they add up to."""

    def __init__(self, name: str, seed: int, smoke: bool) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.size = defs.workload_size(name, smoke)
        self.records: List[Dict[str, Any]] = []  # un-traced, correct
        self.traces: List[Dict[str, Any]] = []  # traced, correct
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        #: Deterministic part of the first rep's record; every later rep
        #: (traced or not) must reproduce it.
        self.stable_record: Optional[Dict[str, Any]] = None

    def rep(self, traced: bool, trace_out: Optional[str] = None) -> None:
        spec = {
            "workload": self.name,
            "seed": self.seed,
            "num_prefixes": self.size,
            "traced": traced,
            # One rep per set also rebuilds the table through
            # run_sharded_build (after its timings are taken).
            "verify": self.name == "dfz-build" and not traced and not self.records,
        }
        if traced and trace_out:
            spec["trace_out"] = trace_out
        if self.smoke:
            spec["probe_steps"] = defs.SMOKE_PROBE_STEPS
        self.attempted += 1
        report = spawn_rep(spec)
        problems = [report["error"]] if "error" in report else self._check(report, traced)
        if problems:
            self.failed += 1
            self.problems.extend(f"{self.name} rep {self.attempted}: {p}" for p in problems)
        elif traced:
            self.traces.append(report)
        else:
            self.records.append(report["record"])

    def _check(self, report: Dict[str, Any], traced: bool) -> List[str]:
        record = report["record"]
        problems = defs.check_record(self.name, record, self.size)
        stable = defs.deterministic_part(record)
        stable.pop("reference", None)
        if self.stable_record is None:
            self.stable_record = stable
        elif stable != self.stable_record:
            differing = sorted(
                key
                for key in set(stable) | set(self.stable_record)
                if stable.get(key) != self.stable_record.get(key)
            )
            kind = "traced rep is not passive" if traced else "rep is not deterministic"
            problems.append(f"{kind}: {', '.join(differing)} differ from the first rep")
        return problems

    # -- results -------------------------------------------------------
    def values(self, metric: str) -> List[float]:
        """One end-to-end metric over the un-traced reps, at nominal speed."""
        return [defs.at_nominal_speed(metric, record) for record in self.records]

    def raw_values(self, metric: str) -> List[float]:
        return [record[metric] for record in self.records]

    def end_to_end(self) -> Dict[str, Dict[str, float]]:
        return {
            name: defs.summarize(self.values(name))
            for name, _unit, _better, _bound in defs.END_TO_END
        }

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def exact(self) -> Dict[str, float]:
        first = self.stable_record or {}
        return {
            "sim_convergence_ms": first.get("sim_convergence_ms"),
            "flow_mods_pushed": first.get("flow_mods_pushed"),
            "failed_frac": self.failed_frac(),
        }

    def per_layer(self) -> Dict[str, float]:
        """Median over the traced reps (counts are identical across them;
        host times are scaled to nominal speed by each rep's own probe)."""
        merged: Dict[str, float] = {}
        for name in self.traces[0]["trace"]["metrics"]:
            scaled = defs.is_host_time(name)
            merged[name] = statistics.median(
                t["trace"]["metrics"][name] / (defs.slowdown(t["record"]) if scaled else 1)
                for t in self.traces
            )
        traced_total = statistics.median(
            defs.at_nominal_speed("total_s", t["record"]) for t in self.traces
        )
        merged["trace.overhead_frac"] = (
            traced_total / statistics.median(self.values("total_s")) - 1.0
        )
        merged["failed_frac"] = self.failed_frac()
        return merged

    def attribution(self) -> Dict[str, float]:
        """How much of the traced rep's wall-clock the budget explains."""
        trace = self.traces[-1]["trace"]
        parts = (
            sum(layer["self_s"] for layer in trace["layers"].values())
            + trace["harness_self_s"]
            + trace["gc_pause_s"]
        )
        return {"attributed_s": parts, "traced_total_s": self.traces[-1]["record"]["total_s"]}


def run_workload(
    name: str,
    seed: int,
    smoke: bool,
    *,
    untraced: int,
    traced: int,
    budget_s: Optional[float] = None,
    trace_out: Optional[str] = None,
) -> WorkloadRun:
    """``untraced`` + ``traced`` reps at least; with a budget, keep going
    (alternating when both kinds are wanted) while another rep fits."""
    run = WorkloadRun(name, seed, smoke)
    started = time.perf_counter()
    longest = 0.0
    done_untraced = done_traced = 0
    while True:
        want_traced = traced > 0 and (
            done_untraced >= untraced if budget_s is None else done_traced < done_untraced
        )
        enough = done_untraced >= untraced and done_traced >= traced
        if enough:
            elapsed = time.perf_counter() - started
            if budget_s is None or elapsed + longest > budget_s:
                break
        rep_started = time.perf_counter()
        run.rep(want_traced, trace_out if done_traced == 0 else None)
        longest = max(longest, time.perf_counter() - rep_started)
        if want_traced:
            done_traced += 1
        else:
            done_untraced += 1
        if run.failed >= MIN_REPS:
            break  # nothing to measure; do not burn the budget
    return run


def pair_check(runs: Dict[str, WorkloadRun], seed: int, smoke: bool) -> List[str]:
    """``fig4-standalone`` >= 10 x ``fig4-sc``; a lone standalone run gets
    its supercharged sibling from one extra rep at the same seed and size.
    The ratio grows with the table (that is the paper's point), so it is
    only held at the committed sizes, not at smoke size."""
    standalone = runs.get("fig4-standalone")
    if smoke or standalone is None or not standalone.records:
        return []
    sibling = runs.get("fig4-sc")
    if sibling is not None and sibling.records:
        sc_ms = sibling.exact()["sim_convergence_ms"]
    else:
        lone = run_workload("fig4-sc", seed, smoke, untraced=1, traced=0)
        if lone.failed:
            return lone.problems
        sc_ms = lone.exact()["sim_convergence_ms"]
    return defs.check_pair(sc_ms, standalone.exact()["sim_convergence_ms"])


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_run(run: WorkloadRun, show_layers: bool) -> None:
    print(f"== {run.name}  seed={run.seed}  prefixes={run.size}"
          f"  reps={run.attempted}  failed={run.failed}")
    if run.records:
        probe = statistics.median(run.raw_values("probe_s"))
        print(f"  host-speed probe {probe:.4f} s (nominal {defs.PROBE_NOMINAL_S} s):"
              " host times below are scaled to nominal speed, raw medians on the right")
        summaries = run.end_to_end()
        for name, unit, better, bound in defs.END_TO_END:
            s = summaries[name]
            print(
                f"  {name:<20} {s['median']:>14.4f} {unit:<5}"
                f" q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  min {s['min']:.4f}"
                f"  max {s['max']:.4f}  n={s['n']}  ({better} is better, bound {bound})"
                f"  raw {statistics.median(run.raw_values(name)):.4f}"
            )
    units = {name: unit for name, unit, _better in defs.EXACT_END_TO_END}
    for name, value in run.exact().items():
        print(f"  {name:<20} {value!s:>14} {units[name]:<5} exact")
    if show_layers and run.traces and run.records:
        units = {name: unit for name, unit, _better in defs.per_layer_metrics()}
        for name, value in run.per_layer().items():
            print(f"  {name:<32} {value:>16.6f} {units[name]}")
        budget = run.attribution()
        print(
            f"  layer budget: {budget['attributed_s']:.4f} s attributed of"
            f" {budget['traced_total_s']:.4f} s traced total"
        )
    for problem in run.problems:
        print(f"  FAILED {problem}")


def run_report(run: WorkloadRun) -> Dict[str, Any]:
    report: Dict[str, Any] = {
        "size": run.size,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "exact": run.exact(),
        "record": run.stable_record,
    }
    if run.records:
        report["end_to_end"] = {
            name: dict(summary, values=run.values(name), raw_values=run.raw_values(name))
            for name, summary in run.end_to_end().items()
        }
        report["probe_s"] = run.raw_values("probe_s")
    if run.traces and run.records:
        report["per_layer"] = run.per_layer()
        report["attribution"] = run.attribution()
        report["trace_rows"] = run.traces[-1]["trace"]["rows"]
    return report


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def benchmark_json() -> Dict[str, Any]:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": defs.RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _full, _smoke) in defs.WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in defs.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in defs.per_layer_metrics()
        ],
    }


# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=5, help="un-traced reps per workload")
    parser.add_argument("--out", help="write the full report as JSON (for compare.py)")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tier-1 smoke test)")
    parser.add_argument("--workload", choices=sorted(defs.WORKLOADS))
    parser.add_argument("--seconds", type=float, help="measure one workload this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="keep one traced rep's raw span list here")
    parser.add_argument("--emit-benchmark-json", action="store_true",
                        help="print BENCHMARK.json as generated from definitions.py")
    args = parser.parse_args(argv)

    if args.emit_benchmark_json:
        json.dump(benchmark_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if args.trace_out and not args.workload:
        parser.error("--trace-out keeps one workload's spans: name it with --workload")

    if args.workload:
        return driver_run(args)

    if args.reps < MIN_REPS and not args.smoke:
        parser.error(f"--reps must be at least {MIN_REPS}")
    runs: Dict[str, WorkloadRun] = {}
    for name in defs.WORKLOADS:
        runs[name] = run_workload(name, args.seed, args.smoke, untraced=args.reps, traced=1)
        print_run(runs[name], show_layers=True)
    set_problems = pair_check(runs, args.seed, args.smoke)
    for problem in set_problems:
        print(f"FAILED {problem}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "seed": args.seed,
                    "smoke": args.smoke,
                    "python": ".".join(str(part) for part in sys.version_info[:3]),
                    "set_problems": set_problems,
                    "workloads": {name: run_report(run) for name, run in runs.items()},
                },
                handle,
                indent=1,
                sort_keys=True,
            )
            handle.write("\n")
    failed = bool(set_problems) or any(run.failed for run in runs.values())
    return 1 if failed else 0


def driver_run(args: argparse.Namespace) -> int:
    """One ``BENCHMARK.json`` run: the result is the last stdout line."""
    budget = args.seconds if args.seconds is not None else defs.RUN_SECONDS
    if args.trace:
        run = run_workload(args.workload, args.seed, args.smoke, untraced=1, traced=1,
                           budget_s=budget, trace_out=args.trace_out)
    else:
        run = run_workload(args.workload, args.seed, args.smoke, untraced=MIN_REPS, traced=0,
                           budget_s=budget)
    set_problems = pair_check({run.name: run}, args.seed, args.smoke)
    print_run(run, show_layers=bool(args.trace))
    for problem in set_problems:
        print(f"FAILED {problem}")
    if not run.records or (args.trace and not run.traces):
        print("error: no rep completed, nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        units = {name: unit for name, unit, _better in defs.per_layer_metrics()}
        values = run.per_layer()
    else:
        units = {name: unit for name, unit, _better, _bound in defs.END_TO_END}
        values = {name: summary["median"] for name, summary in run.end_to_end().items()}
    correct = not run.failed and not set_problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
