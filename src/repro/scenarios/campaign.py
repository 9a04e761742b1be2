"""Campaign runner: parameter grids → worker pool → aggregated JSON.

A *campaign* expands a base :class:`ScenarioSpec` against a parameter grid
(cartesian product), executes every resulting scenario — serially or
across a ``multiprocessing`` pool, each worker owning its own
deterministic :class:`~repro.sim.engine.Simulator` — and aggregates the
per-scenario convergence metrics through
:mod:`repro.stats` into a JSON results store.

Determinism contract: a scenario's metrics depend only on its spec (which
embeds the seed), never on the worker count or scheduling order, so the
``scenarios`` section of the report is byte-identical across runs with the
same seed.  Wall-clock timing lives only in the ``campaign`` header.
"""

from __future__ import annotations

import itertools
import json
import time
from types import MappingProxyType
from typing import Any, Dict, IO, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.net.addresses import IPv4Address
from repro.runconfig import pool_start_method
from repro.scenarios.failures import FailureInjector
from repro.scenarios.spec import (
    FailureSpec,
    ScenarioSpec,
    ScenarioSpecError,
    failure_campaign,
)
from repro.scenarios.testbed import ScenarioLab, build_scenario
from repro.sim.engine import Simulator
from repro.stats import BoxStats, render
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
    spec_fields = set(ScenarioSpec._fields)
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
# The failover driver
# ----------------------------------------------------------------------
#: The paper's failure event: the primary provider loses carrier.
PRIMARY_LINK_DOWN = FailureSpec(kind="link_down", at=0.0)


class FailoverResult(NamedTuple):
    """The one read-out of a driven failover, in raw simulated seconds."""

    supercharged: bool
    num_prefixes: int
    #: Instant of the first disruptive event (None when nothing failed).
    failure_time: Optional[float]
    #: Per-destination data-plane outage in seconds.
    convergence_times: Dict[IPv4Address, float]
    detection_time: Optional[float] = None
    #: How the failure was detected ("bfd" or "bgp"), if it was.
    detection_path: Optional[str] = None
    #: Seconds until the router first heard from the controller, if it did.
    push_time: Optional[float] = None
    #: Samples per detection label of their dominating outage.
    detection_paths: Mapping[str, int] = MappingProxyType({})
    recovered: bool = True
    events_fired: int = 0
    churn_updates: int = 0

    @property
    def samples(self) -> List[float]:
        """All per-destination convergence samples (seconds)."""
        return list(self.convergence_times.values())

    @property
    def stats(self) -> Optional[BoxStats]:
        """Box statistics of the samples (None without monitored flows)."""
        samples = self.samples
        return BoxStats.from_samples(samples) if samples else None

    @property
    def max_convergence(self) -> float:
        """Worst-case convergence across monitored destinations."""
        return max(self.convergence_times.values(), default=0.0)

    @property
    def max_convergence_ms(self) -> float:
        """Worst-case convergence in milliseconds."""
        return self.max_convergence * 1e3


def run_failover(
    lab: ScenarioLab, failure: Optional[FailureSpec] = None, timeout: float = 3600.0
) -> FailoverResult:
    """The single failover driver: disturb a brought-up ``lab``, wait for
    the data plane to recover and read the outcome out.

    With ``failure`` the event fires *now* and no simulated time passes
    before the wait (the paper's procedure; Figure 5 repeats it on one
    lab).  Without it the spec's campaign and churn replay are armed and
    run to their horizon first.
    """
    if lab.monitor is None:
        raise RuntimeError("bring_up() (or setup_monitoring()) must run first")
    injector = FailureInjector(lab)
    churn_updates = 0
    if failure is not None:
        injector.fire(failure)
    else:
        injector.arm()
        churn_updates = lab.start_churn()
        horizon = max(lab.spec.failure_horizon, lab.churn_horizon)
        if horizon > 0:
            lab.sim.run_for(horizon + 0.05)
    recovered = lab.wait_recovered(timeout=timeout)
    failure_time = injector.first_failure_time
    result = FailoverResult(
        supercharged=lab.spec.supercharged,
        num_prefixes=lab.spec.num_prefixes,
        failure_time=failure_time,
        convergence_times={d: 0.0 for d in lab.monitored_destinations},
        detection_paths={},
        recovered=bool(recovered),
        events_fired=len(injector.log),
        churn_updates=churn_updates,
    )
    if failure_time is None:
        return result
    details = lab.monitor.convergence_details(failure_time)
    detection_paths: Dict[str, int] = {}
    for _, label in details.values():
        key = label if label is not None else "none"
        detection_paths[key] = detection_paths.get(key, 0) + 1
    event = lab.detection.first_detection(
        failure_time, lab.plan.provider_core_ip(injector.first_failed_provider or 0)
    )
    push = lab.detection.first_push(failure_time)
    return result._replace(
        convergence_times={d: duration for d, (duration, _) in details.items()},
        detection_paths=detection_paths,
        detection_time=None if event is None else event.at - failure_time,
        detection_path=None if event is None else event.path,
        push_time=None if push is None else push.at - failure_time,
    )


def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else round(seconds * 1e3, 6)


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
    result = run_failover(lab, timeout=timeout)
    stats = result.stats
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
    book = lab.detection
    outages = book.outages()
    queue_gauge = lab.telemetry.metrics.get("channel.flow_mods_in_flight")
    record: Dict[str, Any] = {
        "name": spec.name,
        "seed": spec.seed,
        "supercharged": spec.supercharged,
        "num_providers": spec.num_providers,
        "num_edge_routers": spec.num_edge_routers,
        "num_prefixes": spec.num_prefixes,
        "failures": [f.kind for f in spec.failures],
        "converged": bool(converged),
        "recovered": result.recovered,
        "detection_ms": _ms(result.detection_time),
        "detection_path": result.detection_path,
        "detection_paths": dict(sorted(result.detection_paths.items())),
        "push_ms": _ms(result.push_time),
        "churn_updates_replayed": result.churn_updates,
        "remote_groups": spec.remote_groups,
        "remote_repoints": sum(engine.groups_repointed for engine in engines),
        "remote_flow_mods": sum(engine.flow_mods for engine in engines),
        "remote_fallback_prefixes": sum(
            engine.fallback_prefixes for engine in engines
        ),
        "samples": len(result.samples),
        "median_ms": _ms(stats.median) if stats else 0.0,
        "p95_ms": _ms(stats.p95) if stats else 0.0,
        "max_ms": _ms(stats.maximum) if stats else 0.0,
        "mean_ms": _ms(stats.mean) if stats else 0.0,
        "events_fired": result.events_fired,
        "sim_time_s": round(sim.now, 6),
        "sim_events": sim.events_executed,
        # --- telemetry: per-stage convergence timeline -----------------
        "telemetry": True,  # every lab has one; the key is part of the record schema
        **{key: stages[stage] for stage, key in zip(STAGES, STAGE_RECORD_KEYS)},
        # --- telemetry: gauges and flow-mod accounting -----------------
        "flow_mod_queue_peak": queue_gauge.high_water if queue_gauge is not None else None,
        "group_count": sum(c.group_count() for c in lab.controllers),
        "vnh_occupancy": sum(c.allocator.allocated_count for c in lab.controllers),
        "flow_mod_batches": flow_mod_batches,
        "flow_mods_pushed": flow_mods_pushed,
        "flow_mods_per_batch": (
            round(flow_mods_batched / flow_mod_batches, 6) if flow_mod_batches else 0.0
        ),
        "trace_events": lab.telemetry.trace.emitted,
        # --- telemetry: causal provenance ------------------------------
        # Compact per-outage chain summaries and the restoration-latency
        # deciles (p0..p100) of the first outage's per-prefix chains; the
        # full CDF is available from the lab's book (``cli report``).
        "outage_chains": book.outage_summaries(),
        "restoration_cdf_ms": book.restoration_deciles_ms(
            outages[0].outage_id if outages else None
        ),
    }
    return record, lab


def _run_scenario_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pool worker entry point (module-level for picklability)."""
    spec = ScenarioSpec.from_dict(payload["spec"])
    return run_scenario(spec, timeout=payload["timeout"])


def _mode(row: Mapping[str, Any]) -> str:
    return "SC" if row["supercharged"] else "standalone"


#: ``CampaignResult.table``: one scenario per row.
TABLE_COLUMNS = (
    ("scenario", "name"),
    ("mode", _mode),
    ("failures", lambda row: ",".join(row["failures"]) or "-"),
    ("detect (ms)", "detection_ms"),
    ("via", "detection_path"),
    ("median (ms)", "median_ms"),
    ("max (ms)", "max_ms"),
    ("ok", lambda row: "yes" if row["converged"] and row["recovered"] else "NO"),
)

#: ``CampaignResult.stage_table``: the stage offsets plus the gauges.
STAGE_TABLE_COLUMNS = (
    ("scenario", "name"),
    ("mode", _mode),
    *((f"{stage} (ms)", f"stage_{stage}_ms") for stage in STAGES),
    ("fm batches", "flow_mod_batches"),
    ("fm/batch", "flow_mods_per_batch"),
    ("queue peak", "flow_mod_queue_peak"),
    ("groups", "group_count"),
    ("vnh", "vnh_occupancy"),
)


# ----------------------------------------------------------------------
# Campaign result
# ----------------------------------------------------------------------
class CampaignResult(NamedTuple):
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
        summary = BoxStats.from_samples(maxima)
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
        — stages never observed), so campaign sweeps land per-stage
        distributions in the results store."""
        return {
            stage: self._stage_histogram(key).to_dict()
            for stage, key in zip(STAGES, STAGE_RECORD_KEYS)
        }

    def _stage_histogram(self, key: str) -> Histogram:
        histogram = Histogram(key, STAGE_MS_EDGES)
        for row in self.scenarios:
            if row.get(key) is not None:
                histogram.observe(row[key])
        return histogram

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
        return render(self.scenarios, TABLE_COLUMNS)

    def stage_table(self) -> str:
        """Paper-style per-stage convergence breakdown, one scenario per
        row: milliseconds from the failure to detect → decide → push →
        install, plus the exported gauges."""
        return render(self.scenarios, STAGE_TABLE_COLUMNS)

    def stage_summary(self) -> str:
        """Campaign-level stage summary (mean/min/max plus the fixed-edge
        histogram's interpolated p50/p95/p99 over the scenarios that
        observed each stage)."""
        lines = []
        for stage, key in zip(STAGES, STAGE_RECORD_KEYS):
            values = [row[key] for row in self.scenarios if row.get(key) is not None]
            if values:
                mean = sum(values) / len(values)
                histogram = self._stage_histogram(key)
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
class CampaignRunner:
    """Executes a list of scenario specs, optionally on a worker pool.

    ``workers=1`` runs in-process (easiest to debug); ``workers>1`` maps
    the scenarios over a ``multiprocessing`` pool.  Every worker rebuilds
    its scenario from the primitive spec dict, so results are independent
    of the pool size.
    """

    __slots__ = ("specs", "workers", "timeout", "result")

    def __init__(
        self, specs: List[ScenarioSpec], workers: int = 1, timeout: float = 600.0
    ) -> None:
        self.specs = specs
        self.workers = workers
        self.timeout = timeout
        #: Populated by :meth:`run`.
        self.result: Optional[CampaignResult] = None

    def run(self) -> CampaignResult:
        """Execute every scenario and aggregate the results."""
        if not self.specs:
            raise ScenarioSpecError("campaign has no scenarios")
        payloads = [
            {"spec": spec.to_dict(), "timeout": self.timeout} for spec in self.specs
        ]
        started = time.perf_counter()
        if self.workers > 1:
            import multiprocessing  # the serial path never pays for it

            context = multiprocessing.get_context(pool_start_method())
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


def run_campaign(
    base: ScenarioSpec,
    grid: Mapping[str, Sequence[Any]],
    workers: int = 1,
    timeout: float = 600.0,
) -> CampaignResult:
    """One-call convenience: expand ``grid`` against ``base`` and run it."""
    specs = expand_grid(base, grid)
    return CampaignRunner(specs, workers=workers, timeout=timeout).run()
