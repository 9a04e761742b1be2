#!/usr/bin/env python3
"""Quickstart: supercharge a router and measure its failover convergence.

Builds the paper's Figure 4 lab (the ``figure4`` scenario preset) at small
scale (1 000 prefixes), loads the synthetic full table, disconnects the
primary provider and prints the data-plane outage observed by 20 monitored
flows — once for the stock router and once for its supercharged version.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import PRIMARY_LINK_DOWN, BoxStats, Simulator, build_scenario, get_preset, run_failover


def run_mode(supercharged: bool, num_prefixes: int = 1_000) -> BoxStats:
    """Run one failover and return the convergence distribution (seconds)."""
    spec = get_preset(
        "figure4",
        num_prefixes=num_prefixes,
        supercharged=supercharged,
        monitored_flows=20,
    )
    lab = build_scenario(Simulator(seed=spec.seed), spec)
    lab.bring_up()
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    print(
        f"  detection time          : {result.detection_time * 1e3:7.1f} ms"
        if result.detection_time is not None
        else "  detection time          : n/a"
    )
    return result.stats


def main() -> None:
    print("Supercharge me — quickstart (1 000 prefixes, 20 monitored flows)")
    for supercharged in (False, True):
        label = "supercharged router" if supercharged else "standalone router "
        print(f"\n{label}:")
        stats = run_mode(supercharged)
        print(f"  median convergence      : {stats.median * 1e3:7.1f} ms")
        print(f"  95th percentile         : {stats.p95 * 1e3:7.1f} ms")
        print(f"  worst-case convergence  : {stats.maximum * 1e3:7.1f} ms")
    print(
        "\nThe standalone router rewrites its FIB entry-by-entry (slow, grows"
        "\nwith the table size); the supercharged router only rewrites the"
        "\nper-backup-group rules on the SDN switch (constant, ~100 ms)."
    )


if __name__ == "__main__":
    main()
