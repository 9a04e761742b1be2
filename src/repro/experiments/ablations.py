"""Ablation studies called out in DESIGN.md.

The paper reports a single supercharged configuration; these sweeps expose
where its ~150 ms budget comes from and how the alternative designs
mentioned in the paper (a PIC-style hierarchical FIB inside the router)
compare:

* ``sweep_bfd_interval`` — the failure-detection component;
* ``sweep_flow_mod_latency`` — the switch-programming component;
* ``compare_fib_designs`` — flat FIB vs hierarchical FIB vs supercharged.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.scenarios.campaign import PRIMARY_LINK_DOWN, run_failover
from repro.scenarios.presets import figure4
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator


class AblationPoint(NamedTuple):
    """One configuration point of an ablation sweep."""

    label: str
    parameter: float
    max_convergence: float
    median_convergence: float
    detection_time: Optional[float]


def _sweep(
    cells: Sequence[Tuple[str, float, Dict[str, Any]]],
    num_prefixes: int,
    monitored_flows: int,
    seed: int,
) -> List[AblationPoint]:
    """One failover of the Figure-4 lab per ``(label, parameter, spec
    overrides)`` cell."""
    points = []
    for label, parameter, overrides in cells:
        spec = figure4(
            num_prefixes=num_prefixes,
            monitored_flows=monitored_flows,
            seed=seed,
            **overrides,
        )
        lab = build_scenario(Simulator(seed=spec.seed), spec)
        lab.bring_up()
        result = run_failover(lab, PRIMARY_LINK_DOWN)
        samples = sorted(result.samples)
        points.append(
            AblationPoint(
                label=label,
                parameter=parameter,
                max_convergence=result.max_convergence,
                # The upper median of the raw samples, not BoxStats' interpolation.
                median_convergence=samples[len(samples) // 2] if samples else 0.0,
                detection_time=result.detection_time,
            )
        )
    return points


def sweep_bfd_interval(
    intervals: Sequence[float] = (0.005, 0.015, 0.03, 0.05, 0.1),
    num_prefixes: int = 1_000,
    monitored_flows: int = 20,
    seed: int = 1,
) -> List[AblationPoint]:
    """Supercharged convergence as a function of the BFD transmit interval."""
    cells = [
        (f"bfd={interval * 1e3:.0f}ms", interval, dict(bfd_interval=interval))
        for interval in intervals
    ]
    return _sweep(cells, num_prefixes, monitored_flows, seed)


def sweep_flow_mod_latency(
    latencies: Sequence[float] = (0.001, 0.005, 0.02, 0.05),
    num_prefixes: int = 1_000,
    monitored_flows: int = 20,
    seed: int = 1,
) -> List[AblationPoint]:
    """Supercharged convergence as a function of the switch rule-install latency."""
    cells = [
        (f"flowmod={latency * 1e3:.0f}ms", latency, dict(flow_mod_latency=latency))
        for latency in latencies
    ]
    return _sweep(cells, num_prefixes, monitored_flows, seed)


def compare_fib_designs(
    num_prefixes: int = 2_000,
    monitored_flows: int = 20,
    seed: int = 1,
) -> List[AblationPoint]:
    """Flat FIB vs hierarchical (PIC) FIB vs supercharged router."""
    cells = [
        ("flat-fib (standalone)", 0.0, dict(supercharged=False)),
        ("hierarchical-fib (PIC)", 1.0, dict(supercharged=False, hierarchical_fib=True)),
        ("supercharged", 2.0, dict(supercharged=True)),
    ]
    return _sweep(cells, num_prefixes, monitored_flows, seed)
