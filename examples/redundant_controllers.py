#!/usr/bin/env python3
"""Reliability demo (§3): two controller replicas, no state synchronisation.

Builds the supercharged lab with two controller replicas, shows that both
independently compute identical VNH/VMAC assignments (the paper's argument
for why no synchronisation is needed), crashes one replica and verifies the
next failover still converges within the paper's envelope.

Run with::

    python examples/redundant_controllers.py
"""

from __future__ import annotations

from repro import PRIMARY_LINK_DOWN, Simulator, build_scenario, get_preset, run_failover


def main() -> None:
    sim = Simulator(seed=4)
    spec = get_preset(
        "figure4", num_prefixes=500, redundant_controllers=True, monitored_flows=20
    )
    lab = build_scenario(sim, spec)
    lab.bring_up()

    first, second = lab.cluster.replicas()
    print("Replica VNH/VMAC assignments identical without synchronisation:",
          lab.cluster.assignments_consistent())
    print(f"  {first.name}: {first.group_count()} groups, "
          f"{len(first.vnh_bindings())} VNH bindings")
    print(f"  {second.name}: {second.group_count()} groups, "
          f"{len(second.vnh_bindings())} VNH bindings")

    result = run_failover(lab, PRIMARY_LINK_DOWN)
    print(f"\nFailover with both replicas alive : {result.max_convergence_ms:6.1f} ms (worst flow)")
    lab.restore_provider()

    print(f"\nCrashing replica {first.name}…")
    lab.cluster.fail_replica(first.name)
    sim.run_for(1.0)
    result = run_failover(lab, PRIMARY_LINK_DOWN)
    print(f"Failover with one replica crashed : {result.max_convergence_ms:6.1f} ms (worst flow)")
    print("Router still protected:", lab.cluster.surviving_protection())


if __name__ == "__main__":
    main()
