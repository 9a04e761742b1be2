"""Figure 5: convergence time vs number of prefixes.

For each prefix count and each mode (supercharged / non-supercharged) the
experiment builds the Figure 4 lab, loads the synthetic full table, fails
the primary provider and records the per-destination data-plane outage of
100 monitored flows, repeated ``repetitions`` times — the same methodology
as the paper (3 repetitions × 100 flows = 300 samples per box).

The default prefix counts are scaled down so the sweep completes in
minutes on a laptop; set the environment variable ``REPRO_FULL_SCALE=1``
(or pass ``prefix_counts=FULL_SCALE_PREFIX_COUNTS``) to run the paper's
1 k – 500 k x-axis.  The convergence behaviour is linear in the prefix
count by construction of the FIB update process, so the reduced sweep
preserves the paper's shape; EXPERIMENTS.md records both.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.runconfig import env_flag
from repro.scenarios.campaign import PRIMARY_LINK_DOWN, run_failover
from repro.scenarios.presets import figure4
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator
from repro.stats import BoxStats, render

#: Paper x-axis (Figure 5).
FULL_SCALE_PREFIX_COUNTS: Sequence[int] = (
    1_000, 5_000, 10_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000,
)
#: Laptop-scale default preserving the shape (linear vs constant): the first
#: three points of the paper's x-axis.
DEFAULT_PREFIX_COUNTS: Sequence[int] = (1_000, 5_000, 10_000)

#: Paper-reported maxima (seconds) for the non-supercharged router, used by
#: EXPERIMENTS.md and the report printer for side-by-side comparison.
PAPER_NON_SUPERCHARGED_MAX_S: Dict[int, float] = {
    1_000: 0.9,
    5_000: 1.6,
    10_000: 3.4,
    50_000: 13.8,
    100_000: 29.2,
    200_000: 56.9,
    300_000: 86.4,
    400_000: 113.1,
    500_000: 140.9,
}
#: Paper-reported supercharged convergence ceiling (seconds).
PAPER_SUPERCHARGED_MAX_S = 0.150


def active_prefix_counts() -> Sequence[int]:
    """The sweep's x-axis, honouring the ``REPRO_FULL_SCALE`` opt-in.

    The environment read goes through :mod:`repro.runconfig` — the one
    module the determinism linter (DET005) sanctions for host knobs —
    and happens at sweep-setup time, never inside a simulation.
    """
    if env_flag("REPRO_FULL_SCALE"):
        return FULL_SCALE_PREFIX_COUNTS
    return DEFAULT_PREFIX_COUNTS


class Figure5Row(NamedTuple):
    """One box of Figure 5."""

    num_prefixes: int
    supercharged: bool
    stats: BoxStats
    detection_times: List[float]
    repetitions: int


#: Each prefix count runs standalone first, then supercharged.
MODES: Sequence[bool] = (False, True)


class Figure5Experiment:
    """Runs the full convergence sweep."""

    __slots__ = ("prefix_counts", "repetitions", "monitored_flows", "seed", "rows")

    def __init__(
        self,
        prefix_counts: Optional[Sequence[int]] = None,
        repetitions: int = 3,
        monitored_flows: int = 100,
        seed: int = 1,
    ) -> None:
        self.prefix_counts = list(prefix_counts or active_prefix_counts())
        self.repetitions = repetitions
        self.monitored_flows = monitored_flows
        self.seed = seed
        self.rows: List[Figure5Row] = []

    def run(self) -> List[Figure5Row]:
        """Run every (prefix count, mode) cell and return the rows."""
        self.rows = [
            self.run_cell(count, mode) for count in self.prefix_counts for mode in MODES
        ]
        return self.rows

    def run_cell(self, num_prefixes: int, supercharged: bool) -> Figure5Row:
        """Run all repetitions of one box of the figure."""
        samples: List[float] = []
        detections: List[float] = []
        lab = build_scenario(
            Simulator(seed=self.seed),
            figure4(
                num_prefixes=num_prefixes,
                supercharged=supercharged,
                monitored_flows=self.monitored_flows,
                seed=self.seed,
            ),
        )
        lab.bring_up()
        for repetition in range(self.repetitions):
            if repetition > 0:
                lab.restore_provider()
            result = run_failover(lab, PRIMARY_LINK_DOWN)
            samples.extend(result.samples)
            if result.detection_time is not None:
                detections.append(result.detection_time)
        return Figure5Row(
            num_prefixes=num_prefixes,
            supercharged=supercharged,
            stats=BoxStats.from_samples(samples),
            detection_times=detections,
            repetitions=self.repetitions,
        )

    def report(self) -> str:
        """Text table comparable to the paper's Figure 5 annotations."""
        return render(self.rows, REPORT_COLUMNS)


def _paper_reference(num_prefixes: int) -> str:
    if num_prefixes in PAPER_NON_SUPERCHARGED_MAX_S:
        return f"{PAPER_NON_SUPERCHARGED_MAX_S[num_prefixes]:.1f}"
    # Linear interpolation of the paper's curve for off-grid prefix counts.
    slope = PAPER_NON_SUPERCHARGED_MAX_S[500_000] / 500_000
    return f"~{slope * num_prefixes + 0.4:.1f}"


def _paper_max(row: Figure5Row) -> str:
    if row.supercharged:
        return f"{PAPER_SUPERCHARGED_MAX_S:.3f}"
    return _paper_reference(row.num_prefixes)


def _mode(row: Figure5Row) -> str:
    return "supercharged" if row.supercharged else "standalone"


REPORT_COLUMNS = (
    ("prefixes", "num_prefixes"),
    ("mode", _mode),
    ("median (s)", lambda row: row.stats.median, ".3f"),
    ("p95 (s)", lambda row: row.stats.p95, ".3f"),
    ("max (s)", lambda row: row.stats.maximum, ".3f"),
    ("paper max (s)", _paper_max),
)
