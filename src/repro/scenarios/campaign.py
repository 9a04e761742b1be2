"""Campaign runner: parameter grids → worker pool → aggregated JSON.

A *campaign* expands a base :class:`ScenarioSpec` against a parameter grid
(cartesian product), executes every resulting scenario — serially or
across a ``multiprocessing`` pool, each worker owning its own
deterministic :class:`~repro.sim.engine.Simulator` — and aggregates the
per-scenario convergence metrics through
:mod:`repro.experiments.stats` into a JSON results store.

Determinism contract: a scenario's metrics depend only on its spec (which
embeds the seed), never on the worker count or scheduling order, so the
``scenarios`` section of the report is byte-identical across runs with the
same seed.  Wall-clock timing lives only in the ``campaign`` header.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Dict, IO, List, Mapping, Optional, Sequence, Tuple

from repro.scenarios.failures import FailureInjector
from repro.scenarios.spec import ScenarioSpec, ScenarioSpecError, failure_campaign
from repro.scenarios.testbed import ScenarioLab, build_scenario
from repro.sim.engine import Simulator
from repro.telemetry import STAGES, Histogram

#: Grid key that selects a canned failure campaign instead of a spec field.
FAILURE_GRID_KEY = "failure"

#: Record keys of the per-stage convergence timeline, in pipeline order.
STAGE_RECORD_KEYS = tuple(f"stage_{stage}_ms" for stage in STAGES)

#: Fixed bucket edges (ms) used when aggregating stage offsets across a
#: campaign — frozen so the aggregate stays byte-stable (see
#: docs/observability.md).
STAGE_MS_EDGES = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
                  1_000.0, 5_000.0, 30_000.0, 120_000.0)


def _stats_module():
    # Imported lazily: repro.experiments.figure5 imports the (scenario-based)
    # lab at package-init time, so a module-level import here would be
    # circular.  By the time a campaign runs, everything is initialised.
    from repro.experiments import stats

    return stats


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------
def expand_grid(
    base: ScenarioSpec, grid: Mapping[str, Sequence[Any]]
) -> List[ScenarioSpec]:
    """Expand ``grid`` into one validated spec per parameter combination.

    Grid keys are :class:`ScenarioSpec` field names, plus the special key
    ``"failure"`` naming a canned campaign (``link_down``, ``link_flap``,
    ``bfd_loss``, ``session_reset``, ``controller_crash`` or ``none``).
    Each scenario gets a descriptive name and the derived seed
    ``base.seed + index`` so simulations are decorrelated but reproducible
    from the single base seed.
    """
    spec_fields = set(ScenarioSpec.__dataclass_fields__)
    for key in grid:
        if key != FAILURE_GRID_KEY and key not in spec_fields:
            raise ScenarioSpecError(f"unknown grid key {key!r}")
        if not grid[key]:
            raise ScenarioSpecError(f"grid key {key!r} has no values")
    keys = list(grid.keys())
    specs: List[ScenarioSpec] = []
    for index, combo in enumerate(itertools.product(*(grid[key] for key in keys))):
        overrides: Dict[str, Any] = {}
        label_parts: List[str] = []
        for key, value in zip(keys, combo):
            label_parts.append(f"{key}={value}")
            if key == FAILURE_GRID_KEY:
                overrides["failures"] = failure_campaign(str(value))
            else:
                overrides[key] = value
        # Varying the fan width invalidates the base's per-provider lists;
        # fall back to the generated names/preference ladder.
        if overrides.get("num_providers", base.num_providers) != base.num_providers:
            overrides.setdefault("provider_names", None)
            overrides.setdefault("provider_local_prefs", None)
        # Derived name/seed must not clobber values the grid itself sweeps.
        if "name" not in grid:
            overrides["name"] = (
                f"{base.name}/{'+'.join(label_parts)}" if label_parts else base.name
            )
        if "seed" not in grid:
            overrides["seed"] = base.seed + index
        specs.append(base.with_overrides(**overrides).validate())
    return specs


# ----------------------------------------------------------------------
# Single-scenario execution (the worker body)
# ----------------------------------------------------------------------
def run_scenario(spec: ScenarioSpec, timeout: float = 600.0) -> Dict[str, Any]:
    """Execute one scenario end to end and return its metrics record.

    The record contains only simulated-time quantities (plus structural
    metadata), so it is bit-reproducible from the spec alone.
    """
    record, _lab = execute_scenario(spec, timeout=timeout)
    return record


def execute_scenario(
    spec: ScenarioSpec,
    timeout: float = 600.0,
    trace_sink: Optional[IO[str]] = None,
) -> "Tuple[Dict[str, Any], ScenarioLab]":
    """Like :func:`run_scenario`, but also returns the finished lab so
    callers (``cli trace``, tests) can inspect its telemetry context.
    ``trace_sink`` streams every trace event to a JSONL file as it is
    emitted (``cli trace --out``), bypassing the ring buffer's capacity."""
    sim = Simulator(seed=spec.seed)
    lab = build_scenario(sim, spec, trace_sink=trace_sink)
    converged = lab.bring_up(timeout=timeout)
    injector = FailureInjector(lab)
    injector.arm()
    churn_scheduled = lab.start_churn()
    horizon = max(spec.failure_horizon, lab.churn_horizon)
    if horizon > 0:
        sim.run_for(horizon + 0.05)
    recovered = lab.wait_recovered(timeout=timeout)
    failure_time = injector.first_failure_time
    detection_ms: Optional[float] = None
    detection_path: Optional[str] = None
    push_ms: Optional[float] = None
    detection_counts: Dict[str, int] = {}
    if failure_time is not None:
        details = lab.monitor.convergence_details(failure_time)
        samples = [duration for duration, _ in details.values()]
        for duration, label in details.values():
            key = label if label is not None else "none"
            detection_counts[key] = detection_counts.get(key, 0) + 1
        failed = (
            lab.last_failed_provider if lab.last_failed_provider is not None else 0
        )
        event = lab.detection.first_detection(
            failure_time, lab.plan.provider_core_ip(failed)
        )
        if event is not None:
            detection_ms = round((event.at - failure_time) * 1e3, 6)
            detection_path = event.path
        push = lab.detection.first_push(failure_time)
        if push is not None:
            push_ms = round((push.at - failure_time) * 1e3, 6)
    else:
        samples = [0.0 for _ in lab.monitored_destinations]
    stats = _stats_module().BoxStats.from_samples(samples) if samples else None
    engines = lab.remote_engines()
    # Final occupancy sample so the metrics registry's gauges reflect the
    # end state (the record itself reads the objects directly).
    for controller in lab.controllers:
        controller.sample_occupancy()
    stages = lab.stage_offsets()
    provisioners = [
        controller.provisioner
        for controller in lab.controllers
        if controller.provisioner is not None
    ]
    flow_mod_batches = sum(p.batches_pushed for p in provisioners)
    flow_mods_pushed = sum(p.rules_pushed for p in provisioners)
    flow_mods_batched = sum(p.rules_pushed_batched for p in provisioners)
    queue_gauge = (
        lab.telemetry.metrics.get("channel.flow_mods_in_flight")
        if lab.telemetry is not None
        else None
    )
    record: Dict[str, Any] = {
        "name": spec.name,
        "seed": spec.seed,
        "supercharged": spec.supercharged,
        "num_providers": spec.num_providers,
        "num_edge_routers": spec.num_edge_routers,
        "num_prefixes": spec.num_prefixes,
        "failures": [f.kind for f in spec.failures],
        "converged": bool(converged),
        "recovered": bool(recovered),
        "detection_ms": detection_ms,
        "detection_path": detection_path,
        "detection_paths": {k: detection_counts[k] for k in sorted(detection_counts)},
        "push_ms": push_ms,
        "churn_updates_replayed": churn_scheduled,
        "remote_groups": spec.remote_groups,
        "remote_repoints": sum(engine.groups_repointed for engine in engines),
        "remote_flow_mods": sum(engine.flow_mods for engine in engines),
        "remote_fallback_prefixes": sum(
            engine.fallback_prefixes for engine in engines
        ),
        "samples": len(samples),
        "median_ms": round(stats.median * 1e3, 6) if stats else 0.0,
        "p95_ms": round(stats.p95 * 1e3, 6) if stats else 0.0,
        "max_ms": round(stats.maximum * 1e3, 6) if stats else 0.0,
        "mean_ms": round(stats.mean * 1e3, 6) if stats else 0.0,
        "events_fired": len(injector.log),
        "sim_time_s": round(sim.now, 6),
        "sim_events": sim.events_executed,
        # --- telemetry: per-stage convergence timeline -----------------
        "telemetry": spec.telemetry,
        "stage_detect_ms": stages["detect"],
        "stage_decide_ms": stages["decide"],
        "stage_push_ms": stages["push"],
        "stage_install_ms": stages["install"],
        # --- telemetry: gauges and flow-mod accounting -----------------
        "flow_mod_queue_peak": (
            queue_gauge.high_water if queue_gauge is not None else None
        ),
        "group_count": sum(c.group_count() for c in lab.controllers),
        "vnh_occupancy": sum(c.allocator.allocated_count for c in lab.controllers),
        "flow_mod_batches": flow_mod_batches,
        "flow_mods_pushed": flow_mods_pushed,
        "flow_mods_per_batch": (
            round(flow_mods_batched / flow_mod_batches, 6) if flow_mod_batches else 0.0
        ),
        "trace_events": (
            lab.telemetry.trace.emitted if lab.telemetry is not None else None
        ),
        # --- telemetry: causal provenance ------------------------------
        # Compact per-outage chain summaries and the restoration-latency
        # deciles (p0..p100) of the first outage's per-prefix chains; the
        # full CDF is available from the lab's ledger (``cli report``).
        "outage_chains": (
            lab.telemetry.ledger.outage_summaries()
            if lab.telemetry is not None
            else None
        ),
        "restoration_cdf_ms": (
            lab.telemetry.ledger.restoration_deciles_ms(
                lab.telemetry.causal.outages()[0].outage_id
                if lab.telemetry.causal.outages()
                else None
            )
            if lab.telemetry is not None
            else None
        ),
    }
    return record, lab


def _run_scenario_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker entry point (module-level for picklability)."""
    spec = ScenarioSpec.from_dict(payload["spec"])
    return run_scenario(spec, timeout=payload["timeout"])


# ----------------------------------------------------------------------
# Campaign result
# ----------------------------------------------------------------------
@dataclass
class CampaignResult:
    """All per-scenario records plus campaign-level aggregation."""

    scenarios: List[Dict[str, Any]]
    workers: int
    wall_seconds: float
    base_seed: int

    @property
    def throughput(self) -> float:
        """Scenarios completed per wall-clock second."""
        if self.wall_seconds <= 0:
            return float("inf")
        return len(self.scenarios) / self.wall_seconds

    def aggregate(self) -> Dict[str, Any]:
        """Campaign-level summary of the per-scenario metrics."""
        if not self.scenarios:
            return {"scenarios": 0}
        maxima = [row["max_ms"] for row in self.scenarios]
        medians = [row["median_ms"] for row in self.scenarios]
        summary = _stats_module().BoxStats.from_samples(maxima)
        return {
            "scenarios": len(self.scenarios),
            "all_converged": all(row["converged"] for row in self.scenarios),
            "all_recovered": all(row["recovered"] for row in self.scenarios),
            "worst_max_ms": round(summary.maximum, 6),
            "median_max_ms": round(summary.median, 6),
            "mean_median_ms": round(sum(medians) / len(medians), 6),
            "total_sim_events": sum(row["sim_events"] for row in self.scenarios),
            "total_flow_mod_batches": sum(
                row.get("flow_mod_batches", 0) for row in self.scenarios
            ),
            "total_flow_mods_pushed": sum(
                row.get("flow_mods_pushed", 0) for row in self.scenarios
            ),
            "stage_histograms": self.stage_histograms(),
        }

    def stage_histograms(self) -> Dict[str, Any]:
        """Fixed-edge histograms of each stage's offsets across scenarios.

        Aggregates the per-record ``stage_*_ms`` fields (skipping ``None``
        — stages never observed or telemetry-off runs), so campaign sweeps
        land per-stage distributions in the results store."""
        histograms: Dict[str, Any] = {}
        for stage, key in zip(STAGES, STAGE_RECORD_KEYS):
            histogram = Histogram(key, STAGE_MS_EDGES)
            for row in self.scenarios:
                value = row.get(key)
                if value is not None:
                    histogram.observe(value)
            histograms[stage] = histogram.to_dict()
        return histograms

    def to_report(self) -> Dict[str, Any]:
        """The full JSON-ready report (header + scenarios + aggregate)."""
        return {
            "campaign": {
                "base_seed": self.base_seed,
                "workers": self.workers,
                "wall_seconds": round(self.wall_seconds, 3),
                "throughput_scenarios_per_s": round(self.throughput, 3),
            },
            "scenarios": self.scenarios,
            "aggregate": self.aggregate(),
        }

    def scenarios_json(self) -> str:
        """Deterministic JSON of the per-scenario metrics only."""
        return json.dumps(self.scenarios, sort_keys=True)

    def to_json(self, indent: int = 2) -> str:
        """Serialise the full report."""
        return json.dumps(self.to_report(), indent=indent, sort_keys=True)

    def write(self, path: str, indent: int = 2) -> None:
        """Write the aggregated JSON report to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json(indent=indent))
            handle.write("\n")

    def table(self) -> str:
        """Fixed-width text table of the per-scenario metrics."""
        headers = [
            "scenario", "mode", "failures", "detect (ms)", "via",
            "median (ms)", "max (ms)", "ok",
        ]
        rows = []
        for row in self.scenarios:
            rows.append(
                [
                    row["name"],
                    "SC" if row["supercharged"] else "standalone",
                    ",".join(row["failures"]) or "-",
                    f"{row['detection_ms']:.1f}" if row["detection_ms"] is not None else "-",
                    row.get("detection_path") or "-",
                    f"{row['median_ms']:.1f}",
                    f"{row['max_ms']:.1f}",
                    "yes" if row["converged"] and row["recovered"] else "NO",
                ]
            )
        return _stats_module().format_table(headers, rows)

    def stage_table(self) -> str:
        """Paper-style per-stage convergence breakdown, one scenario per
        row: milliseconds from the failure to detect → decide → push →
        install, plus the exported gauges."""
        headers = [
            "scenario", "mode", "detect (ms)", "decide (ms)", "push (ms)",
            "install (ms)", "fm batches", "fm/batch", "queue peak",
            "groups", "vnh",
        ]

        def fmt(value: Any) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.1f}"
            return str(value)

        rows = []
        for row in self.scenarios:
            rows.append(
                [
                    row["name"],
                    "SC" if row["supercharged"] else "standalone",
                    fmt(row.get("stage_detect_ms")),
                    fmt(row.get("stage_decide_ms")),
                    fmt(row.get("stage_push_ms")),
                    fmt(row.get("stage_install_ms")),
                    fmt(row.get("flow_mod_batches")),
                    fmt(row.get("flow_mods_per_batch")),
                    fmt(row.get("flow_mod_queue_peak")),
                    fmt(row.get("group_count")),
                    fmt(row.get("vnh_occupancy")),
                ]
            )
        return _stats_module().format_table(headers, rows)

    def stage_summary(self) -> str:
        """Campaign-level stage summary (mean/min/max plus the fixed-edge
        histogram's interpolated p50/p95/p99 over the scenarios that
        observed each stage)."""
        lines = []
        for stage, key in zip(STAGES, STAGE_RECORD_KEYS):
            values = [
                row[key] for row in self.scenarios if row.get(key) is not None
            ]
            if values:
                mean = sum(values) / len(values)
                histogram = Histogram(key, STAGE_MS_EDGES)
                for value in values:
                    histogram.observe(value)
                p50 = histogram.quantile(0.50)
                p95 = histogram.quantile(0.95)
                p99 = histogram.quantile(0.99)
                lines.append(
                    f"  {stage:<8}: n={len(values)}  mean {mean:8.1f} ms"
                    f"  min {min(values):8.1f} ms  max {max(values):8.1f} ms"
                    f"  p50 {p50:8.1f} ms  p95 {p95:8.1f} ms  p99 {p99:8.1f} ms"
                )
            else:
                lines.append(f"  {stage:<8}: n=0")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
@dataclass
class CampaignRunner:
    """Executes a list of scenario specs, optionally on a worker pool.

    ``workers=1`` runs in-process (easiest to debug); ``workers>1`` maps
    the scenarios over a ``multiprocessing`` pool.  Every worker rebuilds
    its scenario from the primitive spec dict, so results are independent
    of the pool size.
    """

    specs: List[ScenarioSpec]
    workers: int = 1
    timeout: float = 600.0
    #: Populated by :meth:`run`.
    result: Optional[CampaignResult] = field(default=None, repr=False)

    def run(self) -> CampaignResult:
        """Execute every scenario and aggregate the results."""
        if not self.specs:
            raise ScenarioSpecError("campaign has no scenarios")
        payloads = [
            {"spec": spec.to_dict(), "timeout": self.timeout} for spec in self.specs
        ]
        started = time.perf_counter()
        if self.workers > 1:
            context = multiprocessing.get_context(_pool_start_method())
            processes = min(self.workers, len(payloads))
            with context.Pool(processes=processes) as pool:
                rows = pool.map(_run_scenario_payload, payloads)
        else:
            rows = [_run_scenario_payload(payload) for payload in payloads]
        wall = time.perf_counter() - started
        self.result = CampaignResult(
            scenarios=rows,
            workers=self.workers,
            wall_seconds=wall,
            base_seed=self.specs[0].seed,
        )
        return self.result


def _pool_start_method() -> str:
    """Prefer fork (inherits sys.path; cheap); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def run_campaign(
    base: ScenarioSpec,
    grid: Mapping[str, Sequence[Any]],
    workers: int = 1,
    timeout: float = 600.0,
) -> CampaignResult:
    """One-call convenience: expand ``grid`` against ``base`` and run it."""
    specs = expand_grid(base, grid)
    return CampaignRunner(specs, workers=workers, timeout=timeout).run()
