"""Detection-path comparison: BFD vs BGP, local vs remote faults.

The paper's core speedup comes from detecting *local* failures with BFD in
tens of milliseconds instead of waiting for BGP.  Its §5 extension asks
what happens when the failure is *remote* — the next hop dies somewhere
upstream, the access link never loses carrier, and BFD has nothing to see.
This experiment runs the same testbed through a 2×2 grid

* fault class: ``local`` (``link_down`` on the primary provider link) vs
  ``remote`` (``remote_withdraw`` of the primary provider's table), and
* mode: supercharged vs standalone,

and reports, for every cell, how the failure was detected (BFD or BGP
propagation), the detection latency, the controller-push latency (the
instant the supercharged router heard about it) and the resulting
data-plane convergence spread.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.scenarios.campaign import run_scenario
from repro.scenarios.spec import ScenarioSpec, failure_campaign
from repro.stats import render

#: (label, failure kind) pairs making up the fault-class axis.
FAULT_CLASSES: Sequence = (("local", "link_down"), ("remote", "remote_withdraw"))

#: Campaign-record keys a row keeps next to its ``fault`` label.
ROW_KEYS = (
    "supercharged", "detection_path", "detection_ms", "push_ms",
    "median_ms", "max_ms", "detection_paths", "recovered",
)

REPORT_COLUMNS = (
    ("fault", "fault"),
    ("mode", lambda row: "supercharged" if row["supercharged"] else "standalone"),
    ("detected via", "detection_path"),
    ("detect (ms)", "detection_ms"),
    ("push (ms)", "push_ms"),
    ("median conv (ms)", "median_ms"),
    ("max conv (ms)", "max_ms"),
)


class DetectionExperiment:
    """Runs the 2×2 fault-class × mode grid and tabulates detection paths."""

    __slots__ = ("num_prefixes", "monitored_flows", "prefix_fraction", "seed", "rows")

    def __init__(
        self,
        num_prefixes: int = 1000,
        monitored_flows: int = 20,
        prefix_fraction: float = 1.0,
        seed: int = 1,
    ) -> None:
        self.num_prefixes = num_prefixes
        self.monitored_flows = monitored_flows
        self.prefix_fraction = prefix_fraction
        self.seed = seed
        self.rows: List[Dict[str, Any]] = []

    def _spec(self, fault_kind: str, supercharged: bool) -> ScenarioSpec:
        mode = "sc" if supercharged else "standalone"
        return ScenarioSpec(
            name=f"detection/{fault_kind}+{mode}",
            num_prefixes=self.num_prefixes,
            supercharged=supercharged,
            num_providers=2,
            monitored_flows=self.monitored_flows,
            seed=self.seed,
            failures=failure_campaign(fault_kind, prefix_fraction=self.prefix_fraction),
        ).validate()

    def run(self) -> List[Dict[str, Any]]:
        """Run all four cells; each row is the cell's campaign record cut
        down to :data:`ROW_KEYS`, deterministic from the seed."""
        self.rows = []
        for fault, kind in FAULT_CLASSES:
            for supercharged in (True, False):
                record = run_scenario(self._spec(kind, supercharged))
                self.rows.append({"fault": fault, **{key: record[key] for key in ROW_KEYS}})
        return self.rows

    def report(self) -> str:
        """Text table of the detection-time split."""
        return render(self.rows, REPORT_COLUMNS)
