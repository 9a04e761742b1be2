"""Backup-group computation (the paper's Listing 1, generalised).

A *backup group* is the ordered tuple of the first ``group_size`` next
hops of a prefix's ranked path list — ``(primary, backup)`` for the
default size of 2.  Because the number of distinct next hops is tiny
compared to the number of prefixes, a handful of groups covers the whole
table (at most ``n·(n-1)`` groups for ``n`` peers and size 2), and
convergence only needs to touch the per-group state.

:class:`BackupGroupManager` is fed the ranked next-hop lists produced by
the BGP decision process (via :class:`~repro.bgp.rib.RibChange`) and
returns :class:`ProvisioningAction` objects describing what must be sent
to the supercharged router and what must be installed on the switch.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.bgp.rib import RibChange
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.core.vnh_allocator import VnhAllocator

GroupKey = Tuple[IPv4Address, ...]


class BackupGroup:
    """One (primary, backup, …) group and its virtual identity."""

    __slots__ = ("key", "vnh", "vmac", "members")

    def __init__(self, key: GroupKey, vnh: IPv4Address, vmac: MacAddress) -> None:
        self.key = key
        self.vnh = vnh
        self.vmac = vmac
        #: Member prefixes.  A prefix is its int code, so the bulk build
        #: path (``RemoteGroupPlanner.load_code``) stores plain ints here
        #: and they compare, hash and sort as the prefixes they are.
        self.members: Set[IPv4Prefix] = set()

    @property
    def primary(self) -> IPv4Address:
        """The preferred next hop."""
        return self.key[0]

    @property
    def prefix_count(self) -> int:
        """Number of prefixes currently mapped to the group."""
        return len(self.members)


class ActionKind(enum.Enum):
    """What the controller must do as the result of a RIB change."""

    ANNOUNCE_VIRTUAL = "announce_virtual"  # announce prefix to router with VNH
    ANNOUNCE_REAL = "announce_real"  # announce prefix with the real next hop
    WITHDRAW = "withdraw"  # withdraw prefix from the router
    GROUP_CREATED = "group_created"  # new group: provision switch rule + ARP


class ProvisioningAction(NamedTuple):
    """One action produced by the backup-group computation."""

    kind: ActionKind
    prefix: Optional[IPv4Prefix] = None
    next_hop: Optional[IPv4Address] = None
    group: Optional[BackupGroup] = None


class BackupGroupManager:
    """Maintains the prefix → backup-group mapping (Listing 1, online)."""

    def __init__(self, allocator: VnhAllocator, group_size: int = 2) -> None:
        if group_size < 2:
            raise ValueError(f"group_size must be >= 2, got {group_size}")
        self._allocator = allocator
        self.group_size = group_size
        self._groups: Dict[GroupKey, BackupGroup] = {}
        self._group_of_prefix: Dict[IPv4Prefix, GroupKey] = {}
        self.updates_processed = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def groups(self) -> List[BackupGroup]:
        """All live backup groups."""
        return list(self._groups.values())

    def group_for_prefix(self, prefix: IPv4Prefix) -> Optional[BackupGroup]:
        """The group ``prefix`` is currently mapped to, if any."""
        key = self._group_of_prefix.get(prefix)
        return self._groups.get(key) if key is not None else None

    def group_by_key(self, key: GroupKey) -> Optional[BackupGroup]:
        """The group with exactly this next-hop tuple, if it exists."""
        return self._groups.get(key)

    def groups_with_primary(self, next_hop: IPv4Address) -> List[BackupGroup]:
        """Groups whose primary next hop is ``next_hop`` (Listing 2's input)."""
        return [group for group in self._groups.values() if group.primary == next_hop]

    def groups_restorable_to(self, peer: IPv4Address) -> List[BackupGroup]:
        """Groups to point back at ``peer`` when it recovers.

        For the base manager this is the same primary match Listing 2
        uses.  The remote planner overrides both queries differently:
        failover must follow where a rule currently points (its *active*
        next hop), restoration must follow who the rule belongs to (its
        key's primary) — a recovered backup peer must never drag a group
        back to a still-dead primary."""
        return self.groups_with_primary(peer)

    # ------------------------------------------------------------------
    # The online algorithm (Listing 1)
    # ------------------------------------------------------------------
    def process_change(self, change: RibChange) -> List[ProvisioningAction]:
        """Digest one ranked-route change and emit provisioning actions.

        The logic follows the paper's Listing 1 with one deliberate
        correction, documented in DESIGN.md: when a prefix has two or more
        paths, it is *always* announced with its group's VNH (the listing's
        final ``send(bgp_upd)`` branch would leak the real next hop and
        break the indirection for that prefix).
        """
        self.updates_processed += 1
        prefix = change.prefix
        new_next_hops = _distinct_next_hops(change)
        actions: List[ProvisioningAction] = []

        if not new_next_hops:
            # Prefix disappeared entirely.
            self._unassign(prefix)
            if change.old_ranking:
                actions.append(ProvisioningAction(kind=ActionKind.WITHDRAW, prefix=prefix))
            return actions

        if len(new_next_hops) == 1:
            # No backup available: announce the real next hop (Listing 1's
            # ``len(new) == 1`` branch) and drop any previous group mapping.
            self._unassign(prefix)
            actions.append(
                ProvisioningAction(
                    kind=ActionKind.ANNOUNCE_REAL,
                    prefix=prefix,
                    next_hop=new_next_hops[0],
                )
            )
            return actions

        key: GroupKey = tuple(new_next_hops[: self.group_size])
        previous_key = self._group_of_prefix.get(prefix)
        if previous_key == key:
            # Same backup group: nothing to (re-)provision.
            return actions

        if previous_key is not None:
            self._unassign(prefix)

        group = self._groups.get(key)
        if group is None:
            vnh, vmac = self._allocator.allocate()
            group = BackupGroup(key=key, vnh=vnh, vmac=vmac)
            self._groups[key] = group
            actions.append(ProvisioningAction(kind=ActionKind.GROUP_CREATED, group=group))
        group.members.add(prefix)
        self._group_of_prefix[prefix] = key
        actions.append(
            ProvisioningAction(
                kind=ActionKind.ANNOUNCE_VIRTUAL,
                prefix=prefix,
                next_hop=group.vnh,
                group=group,
            )
        )
        return actions

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _unassign(self, prefix: IPv4Prefix) -> None:
        """Drop ``prefix`` from its group, which stays alive even when that
        empties it: its switch rule and VNH remain valid and are reused if
        the same (primary, backup) pair reappears, which avoids churn
        during large reconvergence events."""
        key = self._group_of_prefix.pop(prefix, None)
        if key in self._groups:
            self._groups[key].members.discard(prefix)

    def note_group_pointed(self, group: BackupGroup, next_hop: IPv4Address) -> None:
        """Hook: the data-plane convergence procedure repointed ``group``'s
        switch rule at ``next_hop``.  The base manager keeps no active-next-
        hop state (the provisioner owns the programmed rule), so this is a
        no-op; the remote-group planner overrides it to keep its failover
        index aligned with the data plane."""


def _distinct_next_hops(change: RibChange) -> List[IPv4Address]:
    """Ordered distinct next hops of the new ranking (best first).

    Two paths through the same next hop cannot back each other up, so the
    group is built from *distinct* next hops in preference order.
    """
    seen: Set[IPv4Address] = set()
    ordered: List[IPv4Address] = []
    for route in change.new_ranking:
        next_hop = route.next_hop
        if next_hop not in seen:
            seen.add(next_hop)
            ordered.append(next_hop)
    return ordered
