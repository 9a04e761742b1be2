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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.experiments.stats import BoxStats, format_table
from repro.runconfig import env_flag
from repro.scenarios.presets import figure4
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator

#: Paper x-axis (Figure 5).
FULL_SCALE_PREFIX_COUNTS: Sequence[int] = (
    1_000, 5_000, 10_000, 50_000, 100_000, 200_000, 300_000, 400_000, 500_000,
)
#: Laptop-scale default preserving the shape (linear vs constant); the first
#: three points coincide with the paper's x-axis.
DEFAULT_PREFIX_COUNTS: Sequence[int] = (1_000, 5_000, 10_000, 20_000, 50_000)

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


@dataclass
class Figure5Row:
    """One box of Figure 5."""

    num_prefixes: int
    supercharged: bool
    stats: BoxStats
    detection_times: List[float]
    repetitions: int

    @property
    def label(self) -> str:
        """Human-readable row label."""
        mode = "supercharged" if self.supercharged else "non-supercharged"
        return f"{self.num_prefixes} prefixes ({mode})"


class Figure5Experiment:
    """Runs the full convergence sweep."""

    def __init__(
        self,
        prefix_counts: Optional[Sequence[int]] = None,
        repetitions: int = 3,
        monitored_flows: int = 100,
        seed: int = 1,
        modes: Sequence[bool] = (False, True),
    ) -> None:
        self.prefix_counts = list(prefix_counts or active_prefix_counts())
        self.repetitions = repetitions
        self.monitored_flows = monitored_flows
        self.seed = seed
        self.modes = list(modes)
        self.rows: List[Figure5Row] = []

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> List[Figure5Row]:
        """Run every (prefix count, mode) cell and return the rows."""
        self.rows = []
        for num_prefixes in self.prefix_counts:
            for supercharged in self.modes:
                self.rows.append(self.run_cell(num_prefixes, supercharged))
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
            result = lab.run_single_failover()
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

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Text table comparable to the paper's Figure 5 annotations."""
        headers = [
            "prefixes",
            "mode",
            "median (s)",
            "p95 (s)",
            "max (s)",
            "paper max (s)",
        ]
        rows = []
        for row in self.rows:
            paper = (
                f"{PAPER_SUPERCHARGED_MAX_S:.3f}"
                if row.supercharged
                else _paper_reference(row.num_prefixes)
            )
            rows.append(
                [
                    str(row.num_prefixes),
                    "supercharged" if row.supercharged else "standalone",
                    f"{row.stats.median:.3f}",
                    f"{row.stats.p95:.3f}",
                    f"{row.stats.maximum:.3f}",
                    paper,
                ]
            )
        return format_table(headers, rows)


def _paper_reference(num_prefixes: int) -> str:
    if num_prefixes in PAPER_NON_SUPERCHARGED_MAX_S:
        return f"{PAPER_NON_SUPERCHARGED_MAX_S[num_prefixes]:.1f}"
    # Linear interpolation of the paper's curve for off-grid prefix counts.
    slope = PAPER_NON_SUPERCHARGED_MAX_S[500_000] / 500_000
    return f"~{slope * num_prefixes + 0.4:.1f}"


def run_figure5(
    prefix_counts: Optional[Sequence[int]] = None,
    repetitions: int = 3,
    monitored_flows: int = 100,
    seed: int = 1,
) -> List[Figure5Row]:
    """One-call version of the experiment (used by examples and benches)."""
    experiment = Figure5Experiment(
        prefix_counts=prefix_counts,
        repetitions=repetitions,
        monitored_flows=monitored_flows,
        seed=seed,
    )
    return experiment.run()
