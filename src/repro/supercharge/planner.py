"""Shared-fate remote-group planning over the controller's multi-peer RIB.

:class:`RemoteGroupPlanner` is the remote generalisation of the paper's
Listing 1.  Like :class:`~repro.core.backup_groups.BackupGroupManager` it
maps every multi-path prefix to a group identified by the ordered tuple of
its best distinct next hops — ``(announcing peer, best alternate peer)``
for the default size of 2 — and announces the prefix to the supercharged
router with the group's virtual next hop.  Prefixes that would fail over
to the *same* alternate when their announcing peer's feed breaks therefore
share one switch rule: a shared-fate group.

The difference from the base manager is what happens when the RIB churns:

* the base manager reacts to every :class:`~repro.bgp.rib.RibChange`
  immediately, which turns a full-table remote withdraw into one
  re-announcement per prefix (FIB-download speed);
* the planner *defers* every change that moves a grouped prefix away from
  its group, parking the prefix's new ranked next hops in the group's
  ``pending`` buffer.  The :class:`~repro.supercharge.engine.
  RemoteRepointEngine` flushes those buffers after a short holddown: a
  fully drained group whose members agree on one live alternate is
  repointed with a single flow-mod (the router is never told), while
  partially drained or divergent groups fall back to the per-prefix path
  for exactly the pending members.

Groups are identified by their (stable) virtual MAC, not by their next-hop
tuple: a repoint refreshes the group's key to the members' new consensus
ranking, and two groups may transiently share a tuple after failover (only
the joinable one is indexed for new assignments).  Everything the planner
iterates is ordered deterministically (sorted VMACs / prefixes, insertion-
ordered pending dicts), so campaign sweeps remain byte-reproducible across
worker processes.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bgp.rib import RibChange
from repro.core.backup_groups import (
    ActionKind,
    BackupGroup,
    BackupGroupManager,
    GroupKey,
    ProvisioningAction,
    _distinct_next_hops,
)
from repro.core.vnh_allocator import VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress


class RemoteGroup(BackupGroup):
    """A shared-fate group with data-plane state and a drain buffer."""

    __slots__ = ("active", "pending", "repoints")

    def __init__(self, key: GroupKey, vnh: IPv4Address, vmac: MacAddress) -> None:
        super().__init__(key, vnh, vmac)
        #: Next hop the group's switch rule currently rewrites towards (may
        #: diverge from ``primary`` between a failover and the key refresh);
        #: a new group's rule points at its primary.
        self.active: IPv4Address = key[0]
        #: Members whose ranking moved away from the group, awaiting the
        #: engine's flush: prefix -> its new ranked distinct next hops.
        self.pending: Dict[IPv4Prefix, GroupKey] = {}
        #: How many times the group's rule was repointed by the remote path.
        self.repoints = 0


class RemoteGroupPlanner(BackupGroupManager):
    """Backup-group manager with shared-fate remote-failover planning.

    Drop-in replacement for :class:`BackupGroupManager` on the
    supercharged controller: steady-state behaviour (group keys, VNH
    allocation order, announcements) is identical, so an A/B between the
    two modes differs only while a remote event is being absorbed.

    Membership and pending buffers are keyed by prefix.  A prefix is its
    int code, so the bulk entry points (:meth:`load_code`,
    :meth:`defer_code`) take plain ``int`` codes — a third smaller than
    :class:`IPv4Prefix` instances, which matters at full-DFZ scale — into
    the same dictionaries, and only the per-prefix fallback
    (:meth:`reassign`) wraps one to put it in a router message.
    """

    def __init__(
        self,
        allocator: VnhAllocator,
        group_size: int = 2,
        *,
        int_keys: bool = False,  # unread: benchmarks/e2e still passes it (ROADMAP 1(b))
    ) -> None:
        super().__init__(allocator, group_size=group_size)
        # Storage replaces the base manager's key-indexed dicts: groups
        # live under their stable VMAC, prefixes map to group objects,
        # and a separate join index tracks which group accepts new members
        # for a given ranking key.
        self._groups: Dict[MacAddress, RemoteGroup] = {}
        self._group_of_prefix: Dict[IPv4Prefix, RemoteGroup] = {}
        self._join_index: Dict[GroupKey, RemoteGroup] = {}
        #: Groups with a non-empty pending buffer, keyed by VMAC in
        #: first-deferral order (consumed by the engine's flush).
        self._dirty: Dict[MacAddress, RemoteGroup] = {}
        self.changes_deferred = 0

    # ------------------------------------------------------------------
    # Queries (overriding the key-indexed base implementations)
    # ------------------------------------------------------------------
    def group_for_prefix(self, prefix: IPv4Prefix) -> Optional[RemoteGroup]:
        """The group ``prefix`` is currently mapped to, if any."""
        return self._group_of_prefix.get(prefix)

    def group_by_key(self, key: GroupKey) -> Optional[RemoteGroup]:
        """The group currently accepting new prefixes for ``key``."""
        return self._join_index.get(key)

    def groups_with_primary(self, next_hop: IPv4Address) -> List[RemoteGroup]:
        """Groups whose switch rule currently points at ``next_hop``.

        This deliberately matches on the *active* next hop rather than the
        key's primary: after a remote repoint (or a BFD redirect) the
        data-plane convergence procedure must find the groups that are in
        fact forwarding via a freshly failed peer, or their VNHs would
        blackhole (the repoint-ordering fix for overlapping failures).
        """
        return [
            group
            for group in self._groups.values()
            if group.active == next_hop
        ]

    def groups_restorable_to(self, peer: IPv4Address) -> List[RemoteGroup]:
        """Groups owned by ``peer`` (key primary) to point back at it on
        recovery.  Matching the key rather than the active next hop means
        a recovered *backup* peer never drags its group back towards a
        still-dead primary, while a recovered primary reclaims exactly the
        groups that were redirected away from it."""
        return [group for group in self._groups.values() if group.primary == peer]

    # ------------------------------------------------------------------
    # The online algorithm: defer instead of re-announce
    # ------------------------------------------------------------------
    def process_change(self, change: RibChange) -> List[ProvisioningAction]:
        """Digest one ranked-route change.

        Ungrouped prefixes follow the base Listing-1 logic.  Grouped
        prefixes whose ranking moved are *deferred* into their group's
        pending buffer and produce no immediate actions — the engine's
        flush decides between a one-flow-mod group repoint and a
        per-prefix fallback.
        """
        self.updates_processed += 1
        prefix = change.prefix
        hops = tuple(_distinct_next_hops(change))
        group = self._group_of_prefix.get(prefix)
        if group is None:
            return self._assign(prefix, hops, had_ranking=bool(change.old_ranking))
        if hops[: self.group_size] == group.key and group.active == group.primary:
            # Ranking churned back to (or never left) the group's steady
            # state: drop any parked deferral for this prefix.
            if group.pending.pop(prefix, None) is not None and not group.pending:
                self._dirty.pop(group.vmac, None)
            return []
        group.pending[prefix] = hops
        self._dirty.setdefault(group.vmac, group)
        self.changes_deferred += 1
        return []

    # ------------------------------------------------------------------
    # Bulk entry points over plain int codes (the full-DFZ scale pipeline)
    # ------------------------------------------------------------------
    def load_code(self, code: int, hops: Tuple[IPv4Address, ...]) -> bool:
        """Bulk-load one multi-path prefix, given as its code, into its group.

        The table-build path of the scale pipeline (streaming MRT ingest,
        shard workers): identical group selection and VNH allocation
        order as :meth:`process_change`, but no provisioning actions are
        materialised and no :class:`IPv4Prefix` is allocated — callers
        provision switch rules from :meth:`groups` afterwards.  Returns
        whether the prefix was grouped (``False``: single-path, left
        ungrouped).
        """
        self.updates_processed += 1
        if len(hops) < 2:
            return False
        key: GroupKey = hops[: self.group_size]
        group = self._join_index.get(key)
        # ``not self._joinable(group)``, inlined: an index entry's key is
        # its group's key, so the primary is ``key[0]`` and the key is
        # long enough.
        if group is None or group.pending or group.active != key[0]:
            group = self._create_group(key)
            if group is None:
                return False  # VNH pool exhausted: stays ungrouped
        group.members.add(code)
        self._group_of_prefix[code] = group
        return True

    def defer_code(self, code: int, hops: Tuple[IPv4Address, ...]) -> bool:
        """Park one ranking change, by prefix code, in its group's pending buffer
        (the deferral branch of :meth:`process_change`, fed straight from
        a :class:`~repro.bgp.rib.CompactPeerRib` change stream).  Returns
        whether the prefix was grouped; ungrouped codes are the caller's
        problem (per-prefix path)."""
        self.updates_processed += 1
        group = self._group_of_prefix.get(code)
        if group is None:
            return False
        if hops[: self.group_size] == group.key and group.active == group.primary:
            if group.pending.pop(code, None) is not None and not group.pending:
                self._dirty.pop(group.vmac, None)
            return True
        if not group.pending:
            # First deferral marks the group dirty; pending and the dirty
            # set empty together (flush commit/fallback, steady-state
            # drain), so re-checking per member would just re-hash the
            # VMAC a few hundred thousand times per failover.
            self._dirty[group.vmac] = group
        group.pending[code] = hops
        self.changes_deferred += 1
        return True

    # ------------------------------------------------------------------
    # Engine-facing mutations
    # ------------------------------------------------------------------
    @property
    def has_dirty(self) -> bool:
        """Whether any group has pending deferrals awaiting a flush."""
        return bool(self._dirty)

    def take_dirty(self) -> List[RemoteGroup]:
        """Drain the dirty set in deterministic (VMAC) order."""
        groups = [self._dirty[vmac] for vmac in sorted(self._dirty)]
        self._dirty.clear()
        return groups

    def commit_repoint(
        self, group: RemoteGroup, target: IPv4Address, new_key: GroupKey
    ) -> None:
        """Record a whole-group failover: refresh the group's key to the
        members' consensus ranking and mark ``target`` active."""
        if self._join_index.get(group.key) is group:
            del self._join_index[group.key]
        group.key = new_key
        group.active = target
        group.pending.clear()
        group.repoints += 1
        if self._joinable(group) and new_key not in self._join_index:
            self._join_index[new_key] = group

    def reassign(self, member: int, hops: Tuple[IPv4Address, ...]) -> List[ProvisioningAction]:
        """Per-prefix fallback: detach the member (as stored in a
        ``pending`` buffer — a prefix, or its plain code on the bulk
        path) from its group and route it through the normal assignment
        logic (announce real/virtual or withdraw).  The emitted actions
        print the prefix, so this is where a plain code gets wrapped —
        the per-prefix path allocates router messages anyway."""
        prefix = IPv4Prefix.from_code(member)
        # The emptied group stays alive, like the base manager's, so its
        # VNH can be reused.
        group = self._group_of_prefix.pop(prefix, None)
        if group is not None:
            group.members.discard(prefix)
            group.pending.pop(prefix, None)
        return self._assign(prefix, hops, had_ranking=True)

    def note_group_pointed(self, group: BackupGroup, next_hop: IPv4Address) -> None:
        """Mirror a convergence-procedure redirect into the failover index."""
        if not isinstance(group, RemoteGroup):
            return
        group.active = next_hop
        if self._joinable(group):
            self._join_index.setdefault(group.key, group)
        elif self._join_index.get(group.key) is group:
            del self._join_index[group.key]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _joinable(self, group: RemoteGroup) -> bool:
        """Whether new prefixes may be mapped onto ``group``: its rule must
        point at its own primary and no drain may be in flight."""
        return (
            len(group.key) >= 2
            and group.active == group.primary
            and not group.pending
        )

    def _assign(
        self, prefix: IPv4Prefix, hops: Tuple[IPv4Address, ...], had_ranking: bool
    ) -> List[ProvisioningAction]:
        if not hops:
            if had_ranking:
                return [ProvisioningAction(kind=ActionKind.WITHDRAW, prefix=prefix)]
            return []
        if len(hops) == 1:
            return [
                ProvisioningAction(
                    kind=ActionKind.ANNOUNCE_REAL, prefix=prefix, next_hop=hops[0]
                )
            ]
        key: GroupKey = hops[: self.group_size]
        actions: List[ProvisioningAction] = []
        group = self._join_index.get(key)
        if group is None or not self._joinable(group):
            group = self._create_group(key)
            if group is None:
                # VNH pool exhausted: degrade to the real next hop rather
                # than failing the announcement.
                return [
                    ProvisioningAction(
                        kind=ActionKind.ANNOUNCE_REAL, prefix=prefix, next_hop=hops[0]
                    )
                ]
            actions.append(ProvisioningAction(kind=ActionKind.GROUP_CREATED, group=group))
        group.members.add(prefix)
        self._group_of_prefix[prefix] = group
        actions.append(
            ProvisioningAction(
                kind=ActionKind.ANNOUNCE_VIRTUAL,
                prefix=prefix,
                next_hop=group.vnh,
                group=group,
            )
        )
        return actions

    def _create_group(self, key: GroupKey) -> Optional[RemoteGroup]:
        if not self._allocator.can_allocate:
            return None
        vnh, vmac = self._allocator.allocate()
        group = RemoteGroup(key=key, vnh=vnh, vmac=vmac)
        self._groups[vmac] = group
        self._join_index[key] = group
        return group
