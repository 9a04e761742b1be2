#!/usr/bin/env python3
"""Demo: remote failures (the paper's §5 extension) and detection paths.

Part 1 runs the detection comparison experiment: the same testbed goes
through a 2×2 grid of fault class (local ``link_down`` vs remote
``remote_withdraw``) × mode (supercharged vs standalone) and reports how
each failure was detected — BFD fires in tens of milliseconds for local
carrier loss but never sees a remote fault, which must ride on BGP
propagation instead.

Part 2 sweeps a remote-withdraw campaign across blast radii
(``prefix_fraction``) and both modes on the campaign runner, with the
primary provider replaying RIS-style churn underneath, and re-runs it to
demonstrate that the per-scenario records (including the per-sample
detection paths) are byte-identical for the same seed.

Run with::

    python examples/remote_failures.py [--seed N] [--prefixes N] [--workers N]
"""

from __future__ import annotations

import argparse

from repro.experiments.detection import DetectionExperiment
from repro.scenarios import CampaignRunner, get_preset


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1, help="base seed")
    parser.add_argument("--prefixes", type=int, default=300,
                        help="provider full-table size")
    parser.add_argument("--flows", type=int, default=8,
                        help="monitored destinations per scenario")
    parser.add_argument("--workers", type=int, default=2,
                        help="campaign worker-pool size")
    arguments = parser.parse_args()

    print("=== Detection paths: local vs remote faults ===")
    experiment = DetectionExperiment(
        num_prefixes=arguments.prefixes,
        monitored_flows=arguments.flows,
        seed=arguments.seed,
    )
    experiment.run()
    print(experiment.report())
    print("BFD only sees local carrier loss; remote faults are detected via"
          " BGP propagation.\n")

    print("=== Remote-withdraw campaign (blast radius x mode, with churn) ===")
    base = get_preset(
        "remote-withdraw",
        seed=arguments.seed,
        num_prefixes=arguments.prefixes,
        monitored_flows=arguments.flows,
        churn_rate_ups=400.0,
        churn_withdraw_fraction=0.2,
    )
    # prefix_fraction lives on the failure event, so sweep it via failures.
    fractions = (0.25, 1.0)
    specs = []
    for supercharged in (True, False):
        for fraction in fractions:
            mode = "sc" if supercharged else "standalone"
            specs.append(
                base.with_overrides(
                    name=f"remote/{mode}/frac={fraction}",
                    supercharged=supercharged,
                    failures=[base.failures[0]._replace(prefix_fraction=fraction)],
                ).validate()
            )
    result = CampaignRunner(specs, workers=arguments.workers).run()
    print(result.table())
    aggregate = result.aggregate()
    print(f"\n{aggregate['scenarios']} scenarios in {result.wall_seconds:.1f}s, "
          f"worst max convergence {aggregate['worst_max_ms']:.1f} ms, "
          f"all recovered: {aggregate['all_recovered']}")

    print("\nRe-running the campaign to check reproducibility…")
    repeat = CampaignRunner(specs, workers=arguments.workers).run()
    identical = result.scenarios_json() == repeat.scenarios_json()
    print("Per-scenario records byte-identical across runs:", identical)
    detections = {row["name"]: row["detection_path"] for row in result.scenarios}
    print("Detection paths:", detections)
    remote_via_bgp = all(path == "bgp" for path in detections.values())
    if not identical or not remote_via_bgp:
        print("ERROR: campaign is not reproducible or misattributed detection")
        return 1
    return 0 if aggregate["all_converged"] and aggregate["all_recovered"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
