"""Remote supercharge: grouped vs per-prefix full-table remote withdraw.

The ROADMAP's open remote-path item: a full-table ``remote_withdraw``
converges at FIB-download speed in both modes because the controller
re-announces per prefix.  This experiment measures the fix.  For each
table size it runs the same supercharged testbed twice — ``remote_groups``
off (per-prefix re-announcement baseline) and on (shared-fate group
repoints) — through a full-table remote withdraw of the primary provider,
and reports

* how many flow-mods and REST batches the failover cost,
* how many BGP messages the supercharged router had to digest, and
* the data-plane restoration spread (median / max outage).

The headline claim: with groups on, the flow-mod count is proportional to
the number of shared-fate groups (not the prefix count), the router
receives zero per-prefix messages, and restoration is flat in the table
size instead of growing with it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.stats import BoxStats, format_table
from repro.scenarios.failures import FailureInjector
from repro.scenarios.spec import FailureSpec, ScenarioSpec
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator

#: Default prefix-table sizes of the convergence-vs-size curve.
DEFAULT_PREFIX_COUNTS = (200, 500, 1000)

#: Acceptance threshold: grouped restoration must beat per-prefix by at
#: least this factor at the largest table size.
MIN_SPEEDUP = 5.0


@dataclass(frozen=True)
class RemotePoint:
    """One (table size, mode) cell of the comparison."""

    num_prefixes: int
    grouped: bool
    #: Shared-fate groups live on the controller after the event.
    groups: int
    #: Flow-mods pushed while absorbing the failure.
    flow_mods: int
    #: Batched REST round trips used for the failover.
    rest_batches: int
    #: BGP messages (announcements + withdraws) relayed to the router
    #: while absorbing the failure.
    router_messages: int
    detection_ms: Optional[float]
    median_ms: float
    max_ms: float
    recovered: bool

    @property
    def mode(self) -> str:
        """Human-readable mode label."""
        return "grouped" if self.grouped else "per-prefix"

    def to_dict(self) -> Dict[str, Any]:
        """Primitive-only representation (for the bench worker's JSON)."""
        return asdict(self)


class RemoteSuperchargeExperiment:
    """Runs the grouped-vs-per-prefix curve over a list of table sizes."""

    def __init__(
        self,
        prefix_counts: Sequence[int] = DEFAULT_PREFIX_COUNTS,
        monitored_flows: int = 12,
        num_providers: int = 2,
        prefix_fraction: float = 1.0,
        seed: int = 1,
        timeout: float = 600.0,
    ) -> None:
        self.prefix_counts = list(prefix_counts)
        self.monitored_flows = monitored_flows
        self.num_providers = num_providers
        self.prefix_fraction = prefix_fraction
        self.seed = seed
        self.timeout = timeout
        self.rows: List[RemotePoint] = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> List[RemotePoint]:
        """Run every cell; rows are deterministic from the seed."""
        self.rows = []
        for count in self.prefix_counts:
            for grouped in (False, True):
                self.rows.append(self._run_cell(count, grouped))
        return self.rows

    def _spec(self, num_prefixes: int, grouped: bool) -> ScenarioSpec:
        mode = "grouped" if grouped else "per-prefix"
        return ScenarioSpec(
            name=f"remote-sc/{num_prefixes}/{mode}",
            num_prefixes=num_prefixes,
            supercharged=True,
            num_providers=self.num_providers,
            monitored_flows=self.monitored_flows,
            seed=self.seed,
            remote_groups=grouped,
            failures=[
                FailureSpec(
                    kind="remote_withdraw",
                    at=1.0,
                    prefix_fraction=self.prefix_fraction,
                )
            ],
        ).validate()

    def _run_cell(self, num_prefixes: int, grouped: bool) -> RemotePoint:
        spec = self._spec(num_prefixes, grouped)
        sim = Simulator(seed=spec.seed)
        lab = build_scenario(sim, spec)
        lab.bring_up(timeout=self.timeout)
        controller = lab.controllers[0]
        rules_before = controller.provisioner.rules_pushed
        batches_before = controller.provisioner.batches_pushed
        messages_before = controller.updates_relayed + controller.withdraws_relayed
        injector = FailureInjector(lab)
        injector.arm()
        sim.run_for(spec.failure_horizon + 0.05)
        recovered = lab.wait_recovered(timeout=self.timeout)
        result = lab.measure()
        return RemotePoint(
            num_prefixes=num_prefixes,
            grouped=grouped,
            groups=controller.group_count(),
            flow_mods=controller.provisioner.rules_pushed - rules_before,
            rest_batches=controller.provisioner.batches_pushed - batches_before,
            router_messages=(
                controller.updates_relayed
                + controller.withdraws_relayed
                - messages_before
            ),
            detection_ms=(
                result.detection_time * 1e3
                if result.detection_time is not None
                else None
            ),
            median_ms=(
                BoxStats.from_samples(result.samples).median * 1e3
                if result.samples
                else 0.0
            ),
            max_ms=result.max_convergence * 1e3,
            recovered=bool(recovered),
        )

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def pairs(self) -> List[Tuple[RemotePoint, RemotePoint]]:
        """(per-prefix, grouped) row pairs in table-size order."""
        by_size: Dict[int, Dict[bool, RemotePoint]] = {}
        for row in self.rows:
            by_size.setdefault(row.num_prefixes, {})[row.grouped] = row
        return [
            (cells[False], cells[True])
            for _, cells in sorted(by_size.items())
            if False in cells and True in cells
        ]

    def speedups(self) -> Dict[int, float]:
        """Max-restoration speedup (per-prefix / grouped) per table size."""
        result = {}
        for baseline, grouped in self.pairs():
            if grouped.max_ms > 0:
                result[baseline.num_prefixes] = baseline.max_ms / grouped.max_ms
            else:
                result[baseline.num_prefixes] = float("inf")
        return result

    def acceptance_ok(self, min_speedup: float = MIN_SPEEDUP) -> bool:
        """The PR's acceptance criterion: grouped failovers cost O(#groups)
        flow-mods with no per-prefix router messages, every cell recovers,
        and the largest table restores at least ``min_speedup`` x faster."""
        speedups = self.speedups()
        if not self.rows or not speedups:
            return False
        for row in self.rows:
            if not row.recovered:
                return False
            if row.grouped and row.flow_mods > row.groups:
                return False
            if row.grouped and row.router_messages != 0:
                return False
        return speedups[max(speedups)] >= min_speedup

    def report(self) -> str:
        """Text table of the curve."""
        speedups = self.speedups()
        headers = [
            "prefixes",
            "mode",
            "groups",
            "flow mods",
            "REST batches",
            "router msgs",
            "median restore (ms)",
            "max restore (ms)",
            "speedup",
        ]
        rows = []
        for row in self.rows:
            speedup = ""
            if row.grouped and row.num_prefixes in speedups:
                speedup = f"{speedups[row.num_prefixes]:.1f}x"
            rows.append(
                [
                    str(row.num_prefixes),
                    row.mode,
                    str(row.groups),
                    str(row.flow_mods),
                    str(row.rest_batches),
                    str(row.router_messages),
                    f"{row.median_ms:.1f}",
                    f"{row.max_ms:.1f}",
                    speedup,
                ]
            )
        return format_table(headers, rows)


def run_remote_supercharge(
    prefix_counts: Sequence[int] = DEFAULT_PREFIX_COUNTS,
    monitored_flows: int = 12,
    num_providers: int = 2,
    seed: int = 1,
) -> RemoteSuperchargeExperiment:
    """One-call version (used by the CLI and the bench worker)."""
    experiment = RemoteSuperchargeExperiment(
        prefix_counts=prefix_counts,
        monitored_flows=monitored_flows,
        num_providers=num_providers,
        seed=seed,
    )
    experiment.run()
    return experiment
