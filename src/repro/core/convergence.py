"""Data-plane convergence procedure (the paper's Listing 2).

When BFD reports that a peer is unreachable, every backup group whose
*primary* next hop was that peer is redirected to its backup by rewriting
the group's single switch rule.  The number of rules touched is bounded by
the number of peers — a small constant — which is why the supercharged
router converges in constant time regardless of the FIB size.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional, Sequence

from repro.core.backup_groups import BackupGroup, BackupGroupManager
from repro.core.flow_provisioner import FlowProvisioner
from repro.net.addresses import IPv4Address


class ConvergenceEvent(NamedTuple):
    """Record of one data-plane convergence run (diagnostics/benchmarks)."""

    failed_peer: IPv4Address
    triggered_at: float
    groups_redirected: int
    groups_unprotected: int
    redirected_groups: Sequence[BackupGroup] = ()


class DataPlaneConvergence:
    """Implements ``data_plane_convergence(peer_down_id)`` from Listing 2."""

    def __init__(
        self,
        groups: BackupGroupManager,
        provisioner: FlowProvisioner,
        peer_alive: Optional[Callable[[IPv4Address], bool]] = None,
    ) -> None:
        """``peer_alive`` optionally filters backup candidates through the
        failure detector's view (``None`` treats every peer as usable, the
        classic Listing-2 behaviour)."""
        self._groups = groups
        self._provisioner = provisioner
        self._peer_alive = peer_alive
        self.events: List[ConvergenceEvent] = []

    def peer_down(self, failed_peer: IPv4Address, now: float) -> ConvergenceEvent:
        """Redirect every group whose primary is ``failed_peer`` to its backup.

        All redirections go to the switch as one batched flow-mod bundle
        (:meth:`FlowProvisioner.redirect_groups`): the failover cost is one
        REST round trip, not one per group.
        """
        redirected: List[BackupGroup] = []
        unprotected = 0
        protected: List = []
        for group in self._groups.groups_with_primary(failed_peer):
            backup = self._next_usable_backup(group, failed_peer)
            if backup is None:
                unprotected += 1
                continue
            protected.append((group, backup))
        for (group, backup), ok in zip(
            protected, self._provisioner.redirect_groups(protected)
        ):
            if ok:
                redirected.append(group)
                self._groups.note_group_pointed(group, backup)
            else:
                unprotected += 1
        event = ConvergenceEvent(
            failed_peer=failed_peer,
            triggered_at=now,
            groups_redirected=len(redirected),
            groups_unprotected=unprotected,
            redirected_groups=redirected,
        )
        self.events.append(event)
        return event

    def peer_restored(self, peer: IPv4Address, now: float) -> ConvergenceEvent:
        """Point every group whose primary is ``peer`` back at it.

        Invoked when BFD reports the peer alive again; the control plane
        will also reconverge, but restoring the switch rules immediately
        returns traffic to the preferred (cheaper) provider.
        """
        groups = self._groups.groups_restorable_to(peer)
        outcomes = self._provisioner.redirect_groups(
            [(group, group.primary) for group in groups]
        )
        restored: List[BackupGroup] = []
        for group, ok in zip(groups, outcomes):
            if ok:
                restored.append(group)
                self._groups.note_group_pointed(group, group.primary)
        event = ConvergenceEvent(
            failed_peer=peer,
            triggered_at=now,
            groups_redirected=len(restored),
            groups_unprotected=0,
            redirected_groups=restored,
        )
        self.events.append(event)
        return event

    def _next_usable_backup(
        self, group: BackupGroup, failed_peer: IPv4Address
    ) -> Optional[IPv4Address]:
        """First usable next hop of the group's key that is not the failed
        peer.

        The whole key is scanned (not just the tail): a remote-planner
        group can be *active* on a lower-ranked peer while the key's head
        names its preferred primary — if the active peer fails, that
        primary is a legitimate fallback.  For base groups the failed peer
        is the key's head, so this degenerates to the classic key[1:].
        Candidates the failure detector currently reports dead are
        skipped: repointing at them would blackhole the group while
        counting it as protected."""
        for next_hop in group.key:
            if next_hop == failed_peer:
                continue
            if self._peer_alive is not None and not self._peer_alive(next_hop):
                continue
            return next_hop
        return None
