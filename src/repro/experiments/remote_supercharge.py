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

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.scenarios.campaign import run_failover
from repro.scenarios.spec import FailureSpec, ScenarioSpec
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator
from repro.stats import render

#: Simulated seconds a cell's bring-up, and then its failover, may take.
TIMEOUT = 600.0

#: Acceptance threshold: grouped restoration must beat per-prefix by at
#: least this factor at the largest table size.
MIN_SPEEDUP = 5.0


class RemotePoint(NamedTuple):
    """One (table size, mode) cell of the comparison; ``point._asdict()``
    is its primitive-only JSON form."""

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


class RemoteSuperchargeExperiment:
    """Runs the grouped-vs-per-prefix curve over a list of table sizes."""

    __slots__ = ("prefix_counts", "monitored_flows", "num_providers", "seed", "rows")

    def __init__(
        self,
        prefix_counts: Sequence[int],
        monitored_flows: int = 12,
        num_providers: int = 2,
        seed: int = 1,
    ) -> None:
        self.prefix_counts = prefix_counts
        self.monitored_flows = monitored_flows
        self.num_providers = num_providers
        self.seed = seed
        self.rows: List[RemotePoint] = []

    def run(self) -> List[RemotePoint]:
        """Run every cell; rows are deterministic from the seed."""
        self.rows = [
            self._run_cell(count, grouped)
            for count in self.prefix_counts
            for grouped in (False, True)
        ]
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
            failures=[FailureSpec(kind="remote_withdraw", at=1.0)],
        ).validate()

    def _run_cell(self, num_prefixes: int, grouped: bool) -> RemotePoint:
        spec = self._spec(num_prefixes, grouped)
        lab = build_scenario(Simulator(seed=spec.seed), spec)
        lab.bring_up(timeout=TIMEOUT)
        controller = lab.controllers[0]
        rules_before = controller.provisioner.rules_pushed
        batches_before = controller.provisioner.batches_pushed
        messages_before = controller.updates_relayed + controller.withdraws_relayed
        result = run_failover(lab, timeout=TIMEOUT)
        stats = result.stats
        detection = result.detection_time
        return RemotePoint(
            num_prefixes=num_prefixes,
            grouped=grouped,
            groups=controller.group_count(),
            flow_mods=controller.provisioner.rules_pushed - rules_before,
            rest_batches=controller.provisioner.batches_pushed - batches_before,
            router_messages=(
                controller.updates_relayed + controller.withdraws_relayed - messages_before
            ),
            # Unrounded, unlike a campaign record's: ``--json`` prints them.
            detection_ms=None if detection is None else detection * 1e3,
            median_ms=stats.median * 1e3 if stats else 0.0,
            max_ms=result.max_convergence_ms,
            recovered=result.recovered,
        )

    def pairs(self) -> List[Tuple[RemotePoint, RemotePoint]]:
        """(per-prefix, grouped) row pairs in table-size order."""
        cells = {(row.num_prefixes, row.grouped): row for row in self.rows}
        return [
            (cells[size, False], cells[size, True])
            for size in sorted({size for size, _ in cells})
            if (size, False) in cells and (size, True) in cells
        ]

    def speedups(self) -> Dict[int, float]:
        """Max-restoration speedup (per-prefix / grouped) per table size."""
        return {
            baseline.num_prefixes: (
                baseline.max_ms / grouped.max_ms if grouped.max_ms > 0 else float("inf")
            )
            for baseline, grouped in self.pairs()
        }

    def acceptance_ok(self, min_speedup: float = MIN_SPEEDUP) -> bool:
        """The PR's acceptance criterion: grouped failovers cost O(#groups)
        flow-mods with no per-prefix router messages, every cell recovers,
        and the largest table restores at least ``min_speedup`` x faster."""
        speedups = self.speedups()
        if not speedups:
            return False
        cells_ok = all(
            row.recovered
            and (not row.grouped or (row.flow_mods <= row.groups and row.router_messages == 0))
            for row in self.rows
        )
        return cells_ok and speedups[max(speedups)] >= min_speedup

    def report(self) -> str:
        """Text table of the curve."""
        speedups = self.speedups()

        def speedup(row: RemotePoint) -> str:
            if row.grouped and row.num_prefixes in speedups:
                return f"{speedups[row.num_prefixes]:.1f}x"
            return ""

        columns = (
            ("prefixes", "num_prefixes"),
            ("mode", "mode"),
            ("groups", "groups"),
            ("flow mods", "flow_mods"),
            ("REST batches", "rest_batches"),
            ("router msgs", "router_messages"),
            ("median restore (ms)", "median_ms"),
            ("max restore (ms)", "max_ms"),
            ("speedup", speedup),
        )
        return render(self.rows, columns)
