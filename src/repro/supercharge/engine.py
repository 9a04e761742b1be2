"""Group-indirection failover: flush deferred RIB churn as batched repoints.

:class:`RemoteRepointEngine` sits between the supercharged controller's
RIB listener and the flow provisioner.  Every :class:`RibChange` goes
through :meth:`process_change`; the :class:`~repro.supercharge.planner.
RemoteGroupPlanner` either handles it directly (ungrouped prefixes) or
parks it in the affected group's pending buffer.  The first deferral arms
a single flush event one *holddown* later — long enough for a provider's
withdraw burst (delivered in one simulated instant plus propagation) to
drain completely, short against every FIB-download constant.

At flush time each dirty group is classified:

* **fully drained, one live fate** — every member prefix moved away and
  they agree on the same first *live* alternate: the group is repointed
  there.  All such groups share **one** batched REST call (one flow-mod
  bundle on the switch, one table transaction), the group's key is
  refreshed to the members' new consensus ranking, and the router is never
  told — its FIB keeps pointing at the group VNH.
* **anything else** (partial drain, divergent fates, no live alternate) —
  exactly the pending members fall back to the per-prefix path (withdraw /
  real-next-hop / regroup announcements towards the router).

Liveness comes from the controller's BFD view, so a remote withdraw whose
preferred alternate just lost its link skips straight to the next usable
peer; if the alternate dies only *after* the repoint, the refreshed group
key plus the planner's active-next-hop failover index let the ordinary
Listing-2 convergence procedure move the group again.

Determinism: the engine draws its (tiny) flush-holddown jitter from a
private :class:`SeededRandom` fork, never from the simulator's shared
stream — enabling remote groups must not shift any other seeded decision,
so campaign sweeps stay byte-identical and A/B-comparable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Tuple

from repro.bgp.rib import RibChange
from repro.core.backup_groups import GroupKey, ProvisioningAction
from repro.net.addresses import IPv4Address
from repro.sim.engine import Simulator
from repro.sim.random import SeededRandom
from repro.supercharge.planner import RemoteGroup, RemoteGroupPlanner

if TYPE_CHECKING:  # an annotation only: a sharded build has no switch to push to
    from repro.core.flow_provisioner import FlowProvisioner


class RemoteRepointEvent(NamedTuple):
    """Record of one flush run (diagnostics and benchmarks)."""

    at: float
    #: Groups whose switch rule was rewritten (<= dirty groups).
    groups_repointed: int
    #: Flow-mods actually pushed (deduplicated by the provisioner).
    flow_mods: int
    #: Member prefixes covered by group repoints (zero router messages).
    prefixes_covered: int
    #: Pending prefixes that fell back to the per-prefix path.
    fallback_prefixes: int


class RemoteRepointEngine:
    """Aggregates deferred RIB churn into O(#groups) failover."""

    def __init__(
        self,
        sim: Simulator,
        planner: RemoteGroupPlanner,
        provisioner: FlowProvisioner,
        *,
        peer_alive: Callable[[IPv4Address], bool],
        apply_actions: Callable[[List[ProvisioningAction]], None],
        holddown: float = 1e-3,
        rng: Optional[SeededRandom] = None,
    ) -> None:
        if holddown <= 0:
            raise ValueError(f"holddown must be > 0, got {holddown}")
        self._sim = sim
        self._planner = planner
        self._provisioner = provisioner
        self._peer_alive = peer_alive
        self._apply_actions = apply_actions
        self.holddown = holddown
        self._rng = rng if rng is not None else SeededRandom(0)
        self._flush_handle = None
        self._stopped = False
        self.events: List[RemoteRepointEvent] = []
        self.groups_repointed = 0
        self.flow_mods = 0
        self.prefixes_covered = 0
        self.fallback_prefixes = 0
        self._telemetry = None
        self._holddown_span = None

    def attach_telemetry(self, telemetry) -> None:
        """Enable flush telemetry: a ``remote.flush`` trace event per flush
        run (dirty groups seen, pending-buffer depth, repoints, fallback
        prefixes — the *decide* stage for remote failures) plus a
        pending-depth gauge sampled at flush time and a
        ``remote.holddown`` span measuring each arm→flush churn window
        (its ``duration`` is the jittered holddown actually waited)."""
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # RIB entry point
    # ------------------------------------------------------------------
    def process_change(self, change: RibChange) -> List[ProvisioningAction]:
        """Digest one RIB change; returns the immediately applicable
        provisioning actions (empty when the change was deferred)."""
        actions = self._planner.process_change(change)
        self._arm_flush()
        return actions

    @property
    def flush_pending(self) -> bool:
        """Whether a flush is currently armed."""
        return self._flush_handle is not None

    def absorb_deferred(self) -> None:
        """Arm a flush for deferrals fed straight into the planner (the
        bulk ``defer_code`` stream of the scale path, which bypasses
        :meth:`process_change`); no-op when nothing is dirty."""
        self._arm_flush()

    def shutdown(self) -> None:
        """Stop the engine (controller crash): cancel any armed flush and
        ignore everything from here on — a dead replica must not keep
        programming the switch."""
        self._stopped = True
        # An armed churn window dies with the engine: drop the span
        # without ending it (no event for a window that never flushed).
        self._holddown_span = None
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None

    # ------------------------------------------------------------------
    # Flush
    # ------------------------------------------------------------------
    def _arm_flush(self) -> None:
        if self._stopped or not self._planner.has_dirty or self._flush_handle is not None:
            return
        # Up to 10% seeded jitter decorrelates flushes of independent
        # controllers without touching the simulator's shared stream.
        delay = self.holddown * (1.0 + 0.1 * self._rng.random())
        self._flush_handle = self._sim.schedule(
            delay, self._flush, name="remote:flush"
        )
        if self._telemetry is not None and self._holddown_span is None:
            # Provenance for the decide leg: how long churn accumulated
            # before this flush (span end stamps the ambient outage id).
            self._holddown_span = self._telemetry.span("remote.holddown")

    def _flush(self) -> None:
        self._flush_handle = None
        if self._stopped:
            return
        repoints: List[Tuple[RemoteGroup, IPv4Address]] = []
        refreshed_keys: List[GroupKey] = []
        actions: List[ProvisioningAction] = []
        covered = 0
        fallback = 0
        dirty_groups = 0
        pending_depth = 0
        for group in self._planner.take_dirty():
            if not group.pending:
                continue  # drained back to steady state before the flush
            dirty_groups += 1
            pending_depth += len(group.pending)
            decision = self._decide(group)
            if decision is not None:
                target, new_key = decision
                if target != group.active:
                    repoints.append((group, target))
                    refreshed_keys.append(new_key)
                else:
                    # Rule already points the right way (e.g. a BFD
                    # redirect beat the drain): just refresh the key.
                    self._planner.commit_repoint(group, target, new_key)
                    covered += group.prefix_count
            else:
                fallback += self._fall_back(group, actions)
        if self._holddown_span is not None:
            span = self._holddown_span
            self._holddown_span = None
            span.end(dirty_groups=dirty_groups, pending_depth=pending_depth)
        flow_mods = 0
        if repoints:
            before = self._provisioner.rules_pushed
            outcomes = self._provisioner.point_groups(repoints)
            flow_mods = self._provisioner.rules_pushed - before
            for (group, target), new_key, ok in zip(repoints, refreshed_keys, outcomes):
                if ok:
                    # Commit only what the switch actually accepted, so the
                    # planner's active-next-hop index never diverges from
                    # the programmed rule.
                    self._planner.commit_repoint(group, target, new_key)
                    covered += group.prefix_count
                else:
                    fallback += self._fall_back(group, actions)
        if actions:
            self._apply_actions(actions)
        if repoints or covered or fallback:
            repointed = flow_mods if repoints else 0
            self.events.append(
                RemoteRepointEvent(
                    at=self._sim.now,
                    groups_repointed=repointed,
                    flow_mods=flow_mods,
                    prefixes_covered=covered,
                    fallback_prefixes=fallback,
                )
            )
            self.groups_repointed += repointed
            self.flow_mods += flow_mods
            self.prefixes_covered += covered
            self.fallback_prefixes += fallback
            if self._telemetry is not None:
                self._telemetry.gauge("remote.pending_depth").set(pending_depth)
                self._telemetry.counter("remote.flushes").inc()
                self._telemetry.counter("remote.fallback_prefixes").inc(fallback)
                self._telemetry.emit(
                    "remote.flush",
                    dirty_groups=dirty_groups,
                    pending_depth=pending_depth,
                    groups_repointed=repointed,
                    flow_mods=flow_mods,
                    prefixes_covered=covered,
                    fallback_prefixes=fallback,
                )
        # Deferrals may have raced in behind the flush point.
        self._arm_flush()

    def _fall_back(
        self, group: RemoteGroup, actions: List[ProvisioningAction]
    ) -> int:
        """Send the group's pending members down the per-prefix path."""
        pending = sorted(group.pending.items())
        group.pending.clear()
        for member, hops in pending:
            actions.extend(self._planner.reassign(member, hops))
        return len(pending)

    def _decide(
        self, group: RemoteGroup
    ) -> Optional[Tuple[IPv4Address, GroupKey]]:
        """``(target, refreshed key)`` when the whole group shares one live
        fate; ``None`` sends the pending members to the per-prefix path.

        At DFZ scale a group drains hundreds of thousands of members but
        their rankings collapse to a handful of distinct tuples, so the
        liveness probe runs once per distinct ranking: the tuples are
        deduplicated by value (one C int hash per address), in first-seen
        order.  Equal rankings have equal first live hops, and liveness
        cannot change here (no simulated time passes), so the decision is
        the one a probe per member would reach."""
        pending = group.pending
        if len(pending) != group.prefix_count:
            return None  # partial drain: the survivors must keep their rule
        target: Optional[IPv4Address] = None
        for hops in dict.fromkeys(pending.values()):
            # No live hop: no single rule can carry the group safely, so
            # the members take the per-prefix path.  That path follows
            # BGP's view (it may announce a BFD-dead next hop) — exactly
            # the base manager's behaviour, which is also what rescues a
            # BFD false positive where the "dead" peer still forwards.
            hop_target = next((h for h in hops if self._peer_alive(h)), None)
            if hop_target is None:
                return None
            if target is None:
                target = hop_target
            elif hop_target != target:
                return None  # divergent fates: cannot share one rule
        # Refresh the key from a deterministic representative member,
        # preserving the RANKING order (not the liveness-adjusted target):
        # the key records who *should* carry the group per the decision
        # process, ``active`` records who does.  When liveness forced a
        # lower-ranked target, the key's head keeps naming the preferred
        # peer, so its recovery (BFD up -> ``groups_restorable_to``)
        # reclaims the group.  Alternates of members that disagree with
        # the representative are reconciled lazily by later churn.
        representative = pending[min(pending)]
        new_key: GroupKey = representative[: self._planner.group_size]
        return target, new_key
