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

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.scenarios.presets import figure4
from repro.scenarios.testbed import build_scenario
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class AblationPoint:
    """One configuration point of an ablation sweep."""

    label: str
    parameter: float
    max_convergence: float
    median_convergence: float
    detection_time: Optional[float]


def _run_lab(**overrides) -> "AblationSample":
    """One failover of the Figure-4 lab with ``overrides`` on its spec."""
    spec = figure4(**overrides)
    lab = build_scenario(Simulator(seed=spec.seed), spec)
    lab.bring_up()
    result = lab.run_single_failover()
    samples = sorted(result.samples)
    median = samples[len(samples) // 2] if samples else 0.0
    return AblationSample(
        max_convergence=result.max_convergence,
        median_convergence=median,
        detection_time=result.detection_time,
    )


@dataclass(frozen=True)
class AblationSample:
    """Raw measurements of one lab run."""

    max_convergence: float
    median_convergence: float
    detection_time: Optional[float]


def sweep_bfd_interval(
    intervals: Sequence[float] = (0.005, 0.015, 0.03, 0.05, 0.1),
    num_prefixes: int = 1_000,
    monitored_flows: int = 20,
    seed: int = 1,
) -> List[AblationPoint]:
    """Supercharged convergence as a function of the BFD transmit interval."""
    points = []
    for interval in intervals:
        sample = _run_lab(
            num_prefixes=num_prefixes,
            monitored_flows=monitored_flows,
            seed=seed,
            bfd_interval=interval,
        )
        points.append(
            AblationPoint(
                label=f"bfd={interval * 1e3:.0f}ms",
                parameter=interval,
                max_convergence=sample.max_convergence,
                median_convergence=sample.median_convergence,
                detection_time=sample.detection_time,
            )
        )
    return points


def sweep_flow_mod_latency(
    latencies: Sequence[float] = (0.001, 0.005, 0.02, 0.05),
    num_prefixes: int = 1_000,
    monitored_flows: int = 20,
    seed: int = 1,
) -> List[AblationPoint]:
    """Supercharged convergence as a function of the switch rule-install latency."""
    points = []
    for latency in latencies:
        sample = _run_lab(
            num_prefixes=num_prefixes,
            monitored_flows=monitored_flows,
            seed=seed,
            flow_mod_latency=latency,
        )
        points.append(
            AblationPoint(
                label=f"flowmod={latency * 1e3:.0f}ms",
                parameter=latency,
                max_convergence=sample.max_convergence,
                median_convergence=sample.median_convergence,
                detection_time=sample.detection_time,
            )
        )
    return points


def compare_fib_designs(
    num_prefixes: int = 2_000,
    monitored_flows: int = 20,
    seed: int = 1,
) -> List[AblationPoint]:
    """Flat FIB vs hierarchical (PIC) FIB vs supercharged router."""
    configurations = [
        ("flat-fib (standalone)", dict(supercharged=False)),
        ("hierarchical-fib (PIC)", dict(supercharged=False, hierarchical_fib=True)),
        ("supercharged", dict(supercharged=True)),
    ]
    points = []
    for index, (label, mode) in enumerate(configurations):
        sample = _run_lab(
            num_prefixes=num_prefixes,
            monitored_flows=monitored_flows,
            seed=seed,
            **mode,
        )
        points.append(
            AblationPoint(
                label=label,
                parameter=float(index),
                max_convergence=sample.max_convergence,
                median_convergence=sample.median_convergence,
                detection_time=sample.detection_time,
            )
        )
    return points
