"""Controller and switch redundancy.

The paper's reliability argument (§3): run at least two controller
instances and connect the supercharged router through at least two SDN
switches.  Because the backup-group algorithm is deterministic and both
replicas receive the same BGP inputs, no state synchronisation is needed —
the replicas independently compute identical VNH/VMAC assignments and
switch rules; the router merely receives two copies of every route.

:class:`ControllerCluster` manages N replicas, lets tests/benchmarks kill
any of them, and reports whether the surviving replicas still protect the
router.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.controller import SuperchargedController
from repro.sim.engine import Simulator


class ControllerCluster:
    """A set of redundant supercharged-controller replicas."""

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self._replicas: Dict[str, SuperchargedController] = {}
        self._failed: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_replica(self, controller: SuperchargedController) -> None:
        """Register a replica (already wired to the switch and peers)."""
        if controller.name in self._replicas:
            raise ValueError(f"replica {controller.name} already registered")
        self._replicas[controller.name] = controller
        self._failed[controller.name] = False

    def replicas(self) -> List[SuperchargedController]:
        """All registered replicas, failed or not."""
        return list(self._replicas.values())

    def healthy_replicas(self) -> List[SuperchargedController]:
        """Replicas that have not been failed."""
        return [c for name, c in self._replicas.items() if not self._failed[name]]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        """Start every replica's control plane."""
        for controller in self._replicas.values():
            controller.start()

    def fail_replica(self, name: str) -> SuperchargedController:
        """Crash one replica: its BGP sessions and BFD sessions stop, so the
        router and peers stop hearing from it.  Returns the failed replica."""
        controller = self._replicas[name]
        if self._failed[name]:
            return controller
        self._failed[name] = True
        controller.shutdown()
        return controller

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def assignments_consistent(self) -> bool:
        """Whether all healthy replicas computed identical VNH → VMAC maps.

        This is the property that makes state synchronisation unnecessary.
        """
        healthy = self.healthy_replicas()
        if len(healthy) < 2:
            return True
        reference = healthy[0].vnh_bindings()
        return all(replica.vnh_bindings() == reference for replica in healthy[1:])

    def surviving_protection(self) -> bool:
        """Whether at least one healthy replica still has backup groups
        provisioned (i.e. the router remains protected)."""
        return any(replica.group_count() > 0 for replica in self.healthy_replicas())
