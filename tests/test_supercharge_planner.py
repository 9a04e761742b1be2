"""Unit tests for the shared-fate remote-group planner and repoint engine."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import LocRib, Route, RouteSource
from repro.core.backup_groups import ActionKind, BackupGroupManager
from repro.core.vnh_allocator import VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.sim.engine import Simulator
from repro.sim.random import SeededRandom
from repro.supercharge.engine import RemoteRepointEngine
from repro.supercharge.planner import RemoteGroupPlanner

P1 = IPv4Address("10.0.0.2")
P2 = IPv4Address("10.0.0.3")
P3 = IPv4Address("10.0.0.4")
P4 = IPv4Address("10.0.0.5")

PREFIX_A = IPv4Prefix("1.0.0.0/24")
PREFIX_B = IPv4Prefix("2.0.0.0/24")
PREFIX_C = IPv4Prefix("3.0.0.0/24")

HOLDDOWN = 0.002


def _route(peer, prefix, local_pref=100, path_length=1):
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            next_hop=peer,
            as_path=AsPath(tuple(65001 for _ in range(path_length))),
            local_pref=local_pref,
        ),
        source=RouteSource(peer_ip=peer, peer_asn=65001, router_id=peer),
    )


class FakeProvisioner:
    """Duck-typed FlowProvisioner: records batched repoints."""

    def __init__(self):
        self.rules_pushed = 0
        self.batches = []

    def point_groups(self, pairs):
        pairs = list(pairs)
        if pairs:
            self.batches.append(pairs)
            self.rules_pushed += len(pairs)
        return [True for _ in pairs]

    #: DataPlaneConvergence uses the redirect alias.
    redirect_groups = point_groups


class Harness:
    """Loc-RIB + planner + engine on a real simulator."""

    def __init__(self, dead=(), holddown=HOLDDOWN):
        self.sim = Simulator(seed=1)
        self.loc_rib = LocRib()
        self.planner = RemoteGroupPlanner(VnhAllocator(IPv4Prefix("10.0.0.128/25")))
        self.provisioner = FakeProvisioner()
        self.applied = []
        self.dead = set(dead)
        self.engine = RemoteRepointEngine(
            self.sim,
            self.planner,
            self.provisioner,
            peer_alive=lambda ip: ip not in self.dead,
            apply_actions=self.applied.extend,
            holddown=holddown,
            rng=SeededRandom(7),
        )

    def announce(self, peer, prefix, local_pref=100, path_length=1):
        change = self.loc_rib.update(
            _route(peer, prefix, local_pref=local_pref, path_length=path_length)
        )
        return self.engine.process_change(change)

    def withdraw(self, peer, prefix):
        return self.engine.process_change(self.loc_rib.withdraw(prefix, peer))

    def flush(self):
        self.sim.run_for(10 * HOLDDOWN)


def kinds(actions):
    return [action.kind for action in actions]


# ----------------------------------------------------------------------
# Steady state: drop-in parity with the base manager
# ----------------------------------------------------------------------
def test_steady_state_matches_base_manager():
    base = BackupGroupManager(VnhAllocator(IPv4Prefix("10.0.0.128/25")))
    harness = Harness()
    base_rib = LocRib()
    for peer, prefix in [(P1, PREFIX_A), (P2, PREFIX_A), (P1, PREFIX_B), (P2, PREFIX_B)]:
        base_actions = base.process_change(base_rib.update(_route(peer, prefix)))
        remote_actions = harness.announce(peer, prefix)
        assert kinds(base_actions) == kinds(remote_actions)
    base_group = base.group_for_prefix(PREFIX_A)
    remote_group = harness.planner.group_for_prefix(PREFIX_A)
    assert base_group.key == remote_group.key
    assert base_group.vnh == remote_group.vnh
    assert base_group.vmac == remote_group.vmac
    assert remote_group.active == remote_group.primary


def test_single_path_announced_real_and_group_on_second_path():
    harness = Harness()
    assert kinds(harness.announce(P1, PREFIX_A)) == [ActionKind.ANNOUNCE_REAL]
    actions = harness.announce(P2, PREFIX_A, path_length=2)
    assert kinds(actions) == [ActionKind.GROUP_CREATED, ActionKind.ANNOUNCE_VIRTUAL]
    assert harness.planner.group_for_prefix(PREFIX_A).key == (P1, P2)


# ----------------------------------------------------------------------
# Deferral and full-drain repoints
# ----------------------------------------------------------------------
def _two_prefix_group(harness):
    for prefix in (PREFIX_A, PREFIX_B):
        harness.announce(P1, prefix, path_length=1)
        harness.announce(P2, prefix, path_length=2)
    group = harness.planner.group_for_prefix(PREFIX_A)
    assert group is harness.planner.group_for_prefix(PREFIX_B)
    return group


def test_withdraw_of_grouped_prefix_is_deferred():
    harness = Harness()
    group = _two_prefix_group(harness)
    assert harness.withdraw(P1, PREFIX_A) == []
    assert group.pending == {PREFIX_A: (P2,)}
    assert harness.planner.has_dirty
    assert harness.engine.flush_pending


def test_full_drain_repoints_group_without_router_actions():
    harness = Harness()
    group = _two_prefix_group(harness)
    harness.withdraw(P1, PREFIX_A)
    harness.withdraw(P1, PREFIX_B)
    harness.flush()
    assert harness.applied == []  # the router never hears about it
    assert harness.provisioner.batches == [[(group, P2)]]
    assert group.key == (P2,)
    assert group.active == P2
    assert group.pending == {}
    assert harness.engine.groups_repointed == 1
    assert harness.engine.flow_mods == 1
    assert harness.engine.prefixes_covered == 2


def test_churn_returning_to_steady_state_cancels_deferral():
    harness = Harness()
    group = _two_prefix_group(harness)
    harness.withdraw(P1, PREFIX_A)
    harness.announce(P1, PREFIX_A, path_length=1)  # provider re-announces
    assert group.pending == {}
    harness.flush()
    assert harness.provisioner.batches == []
    assert harness.engine.events == []


def test_partial_drain_falls_back_per_prefix():
    harness = Harness()
    group = _two_prefix_group(harness)
    harness.withdraw(P1, PREFIX_A)
    harness.flush()
    # Only the pending member was reassigned; the survivor keeps the rule.
    assert kinds(harness.applied) == [ActionKind.ANNOUNCE_REAL]
    assert harness.applied[0].prefix == PREFIX_A
    assert harness.applied[0].next_hop == P2
    assert harness.provisioner.batches == []
    assert group.members == {PREFIX_B}
    assert group.active == P1
    assert harness.engine.fallback_prefixes == 1


def test_divergent_fates_fall_back_per_prefix():
    harness = Harness()
    group = _two_prefix_group(harness)
    harness.announce(P3, PREFIX_A, path_length=3)
    harness.announce(P4, PREFIX_B, path_length=3)
    # P1 and P2 both withdraw A while only P1 withdraws B: A drains to P3,
    # B to P2 — no single rule can cover both.
    harness.withdraw(P1, PREFIX_A)
    harness.withdraw(P2, PREFIX_A)
    harness.withdraw(P1, PREFIX_B)
    harness.flush()
    assert harness.engine.groups_repointed == 0
    assert harness.engine.fallback_prefixes == 2
    prefixes = {action.prefix for action in harness.applied if action.prefix is not None}
    assert prefixes == {PREFIX_A, PREFIX_B}


def test_entirely_withdrawn_members_are_withdrawn_from_router():
    harness = Harness()
    group = _two_prefix_group(harness)
    for prefix in (PREFIX_A, PREFIX_B):
        harness.withdraw(P1, prefix)
        harness.withdraw(P2, prefix)
    harness.flush()
    assert kinds(harness.applied) == [ActionKind.WITHDRAW, ActionKind.WITHDRAW]
    assert group.members == set()
    assert harness.provisioner.batches == []


# ----------------------------------------------------------------------
# Liveness-aware target selection (the overlap fix)
# ----------------------------------------------------------------------
def test_dead_alternate_is_skipped_for_next_live_hop():
    harness = Harness(dead={P2})
    for prefix in (PREFIX_A, PREFIX_B):
        harness.announce(P1, prefix, path_length=1)
        harness.announce(P2, prefix, path_length=2)
        harness.announce(P3, prefix, path_length=3)
    group = harness.planner.group_for_prefix(PREFIX_A)
    assert group.key == (P1, P2)
    harness.withdraw(P1, PREFIX_A)
    harness.withdraw(P1, PREFIX_B)
    harness.flush()
    # P2 is the ranked alternate but its BFD session is down: the whole
    # group lands on P3 instead.  The key keeps the RANKING order (P2
    # first), so P2's later recovery can reclaim the group.
    assert harness.provisioner.batches == [[(group, P3)]]
    assert group.key == (P2, P3)
    assert group.active == P3
    assert harness.applied == []


def test_no_live_alternate_falls_back_per_prefix():
    harness = Harness(dead={P2})
    group = _two_prefix_group(harness)
    harness.withdraw(P1, PREFIX_A)
    harness.withdraw(P1, PREFIX_B)
    harness.flush()
    assert harness.engine.groups_repointed == 0
    assert kinds(harness.applied) == [ActionKind.ANNOUNCE_REAL, ActionKind.ANNOUNCE_REAL]


# ----------------------------------------------------------------------
# Next-hop shifts (control-plane repoints)
# ----------------------------------------------------------------------
def test_nexthop_shift_flips_group_in_one_repoint():
    harness = Harness()
    for prefix in (PREFIX_A, PREFIX_B):
        harness.announce(P1, prefix, path_length=1)
        harness.announce(P2, prefix, path_length=2)
    group = harness.planner.group_for_prefix(PREFIX_A)
    # The provider re-announces both prefixes over a much longer upstream
    # path: the decision process flips best to P2 for the whole group.
    harness.announce(P1, PREFIX_A, path_length=5)
    harness.announce(P1, PREFIX_B, path_length=5)
    harness.flush()
    assert harness.provisioner.batches == [[(group, P2)]]
    assert group.key == (P2, P1)
    assert harness.applied == []


# ----------------------------------------------------------------------
# Re-keying, join index and collisions
# ----------------------------------------------------------------------
def test_repointed_group_key_collision_keeps_existing_joinable_group():
    harness = Harness()
    # Group A: PREFIX_A ranked [P2, P3, P4]; group B: PREFIX_B ranked [P3, P4].
    harness.announce(P2, PREFIX_A, path_length=1)
    harness.announce(P3, PREFIX_A, path_length=2)
    harness.announce(P4, PREFIX_A, path_length=3)
    harness.announce(P3, PREFIX_B, path_length=2)
    harness.announce(P4, PREFIX_B, path_length=3)
    group_a = harness.planner.group_for_prefix(PREFIX_A)
    group_b = harness.planner.group_for_prefix(PREFIX_B)
    assert group_a is not group_b
    assert group_a.key == (P2, P3)
    assert group_b.key == (P3, P4)
    harness.withdraw(P2, PREFIX_A)
    harness.flush()
    # A drained onto B's key; both now share the tuple but B keeps the
    # join slot and new prefixes go to B, not to A's repointed rule.
    assert group_a.key == (P3, P4)
    assert harness.planner.group_by_key((P3, P4)) is group_b
    harness.announce(P3, PREFIX_C, path_length=2)
    harness.announce(P4, PREFIX_C, path_length=3)
    assert harness.planner.group_for_prefix(PREFIX_C) is group_b


def test_peer_restored_reclaims_groups_for_the_recovered_primary():
    """Listing-2 restore semantics on the planner: failover follows the
    ACTIVE next hop, restoration follows the key's PRIMARY."""
    from repro.core.convergence import DataPlaneConvergence

    harness = Harness()
    group = _two_prefix_group(harness)
    convergence = DataPlaneConvergence(harness.planner, harness.provisioner)
    # BFD kills the primary: the group is redirected to its backup.
    convergence.peer_down(P1, now=1.0)
    assert group.active == P2
    # The primary recovers: the group is pointed straight back at it.
    event = convergence.peer_restored(P1, now=2.0)
    assert event.groups_redirected == 1
    assert group.active == P1


def test_recovered_backup_never_drags_group_to_dead_primary():
    from repro.core.convergence import DataPlaneConvergence

    harness = Harness()
    group = _two_prefix_group(harness)
    convergence = DataPlaneConvergence(harness.planner, harness.provisioner)
    convergence.peer_down(P1, now=1.0)
    assert group.active == P2
    # The BACKUP flaps and recovers while the primary is still down: the
    # restore pass must not touch the group (P1 would blackhole it).
    event = convergence.peer_restored(P2, now=2.0)
    assert event.groups_redirected == 0
    assert group.active == P2


def test_liveness_overridden_target_keeps_primary_reclaimable():
    """When the flush lands on a lower-ranked peer because the ranked
    head is dead, the key still names the head — its BFD recovery
    reclaims the group via peer_restored."""
    from repro.core.convergence import DataPlaneConvergence

    harness = Harness(dead={P1})
    group = _two_prefix_group(harness)
    convergence = DataPlaneConvergence(harness.planner, harness.provisioner)
    # Both members re-rank onto [P1, P2] while P1's BFD is down (e.g. a
    # table re-transfer after a flap): the drain targets P2 but the key
    # keeps the ranking (P1, P2).
    harness.planner.note_group_pointed(group, P2)
    harness.announce(P1, PREFIX_A, path_length=1)
    harness.announce(P1, PREFIX_B, path_length=1)
    harness.flush()
    assert group.key == (P1, P2)
    assert group.active == P2
    event = convergence.peer_restored(P1, now=3.0)
    assert event.groups_redirected == 1
    assert group.active == P1


def test_active_peer_failure_can_fall_back_to_the_keys_head():
    """A group active on its backup whose backup then dies must be able
    to fail over to the key's (recovered) head."""
    from repro.core.convergence import DataPlaneConvergence

    harness = Harness()
    group = _two_prefix_group(harness)
    convergence = DataPlaneConvergence(harness.planner, harness.provisioner)
    harness.planner.note_group_pointed(group, P2)  # active on the backup
    event = convergence.peer_down(P2, now=1.0)
    assert event.groups_redirected == 1
    assert group.active == P1


def test_active_peer_failure_skips_dead_key_head():
    """If the key's head is ALSO down when the active peer fails, the
    group must be counted unprotected — not repointed at a dead peer."""
    from repro.core.convergence import DataPlaneConvergence

    harness = Harness(dead={P1})
    group = _two_prefix_group(harness)
    convergence = DataPlaneConvergence(
        harness.planner,
        harness.provisioner,
        peer_alive=lambda ip: ip not in harness.dead,
    )
    harness.planner.note_group_pointed(group, P2)  # active on the backup
    before = len(harness.provisioner.batches)
    event = convergence.peer_down(P2, now=1.0)
    assert event.groups_redirected == 0
    assert event.groups_unprotected == 1
    assert len(harness.provisioner.batches) == before
    assert group.active == P2  # untouched, honestly blackholed


def test_failed_switch_outcome_falls_back_instead_of_committing():
    """A repoint the provisioner rejects must not be committed: the
    pending members take the per-prefix path and the planner's active
    index stays aligned with the programmed rule."""
    harness = Harness()
    group = _two_prefix_group(harness)
    harness.provisioner.point_groups = lambda pairs: [False for _ in pairs]
    harness.withdraw(P1, PREFIX_A)
    harness.withdraw(P1, PREFIX_B)
    harness.flush()
    assert harness.engine.groups_repointed == 0
    assert harness.engine.fallback_prefixes == 2
    assert group.active == group.primary == P1  # never committed
    assert kinds(harness.applied) == [ActionKind.ANNOUNCE_REAL, ActionKind.ANNOUNCE_REAL]


def test_groups_with_primary_follows_active_next_hop():
    harness = Harness()
    group = _two_prefix_group(harness)
    assert harness.planner.groups_with_primary(P1) == [group]
    harness.planner.note_group_pointed(group, P2)
    assert harness.planner.groups_with_primary(P1) == []
    assert harness.planner.groups_with_primary(P2) == [group]
    # Pointed away from its primary, the group stops accepting joins.
    assert harness.planner.group_by_key(group.key) is None
    harness.planner.note_group_pointed(group, P1)
    assert harness.planner.group_by_key(group.key) is group


def test_vnh_pool_exhaustion_degrades_to_real_next_hop():
    # A /29 pool minus network/broadcast leaves 6 usable VNHs.
    planner = RemoteGroupPlanner(VnhAllocator(IPv4Prefix("10.0.0.128/29")))
    harness = Harness()
    harness.planner = planner
    harness.engine._planner = planner
    peers = [IPv4Address(f"10.0.1.{i}") for i in range(1, 10)]
    prefixes = [IPv4Prefix(f"{i}.0.0.0/24") for i in range(1, 9)]
    # Each prefix gets a distinct (primary, backup) pair -> distinct group.
    for index, prefix in enumerate(prefixes):
        harness.announce(peers[index], prefix, path_length=1)
        harness.announce(peers[index + 1], prefix, path_length=2)
    kinds_seen = []
    for prefix in prefixes:
        group = planner.group_for_prefix(prefix)
        kinds_seen.append(group is not None)
    assert kinds_seen.count(True) == 6  # pool size
    # The overflow prefixes were announced with their real next hop.
    assert kinds_seen.count(False) == 2


def test_deterministic_flush_order_is_vmac_sorted():
    harness = Harness()
    harness.announce(P1, PREFIX_A, path_length=1)
    harness.announce(P2, PREFIX_A, path_length=2)
    harness.announce(P2, PREFIX_B, path_length=1)
    harness.announce(P3, PREFIX_B, path_length=2)
    group_a = harness.planner.group_for_prefix(PREFIX_A)
    group_b = harness.planner.group_for_prefix(PREFIX_B)
    harness.withdraw(P2, PREFIX_B)
    harness.withdraw(P1, PREFIX_A)
    harness.flush()
    # One batched REST call covers both groups, ordered by VMAC.
    assert harness.provisioner.batches == [[(group_a, P2), (group_b, P3)]]


def test_shutdown_cancels_armed_flush_and_goes_silent():
    """A crashed controller's engine must not keep programming the
    switch: an armed flush is cancelled and later changes are ignored."""
    harness = Harness()
    group = _two_prefix_group(harness)
    harness.withdraw(P1, PREFIX_A)
    assert harness.engine.flush_pending
    harness.engine.shutdown()
    assert not harness.engine.flush_pending
    harness.withdraw(P1, PREFIX_B)
    harness.flush()
    assert harness.provisioner.batches == []
    assert harness.applied == []
    assert harness.engine.events == []
    assert group.active == P1  # rule untouched after the crash


def test_controller_crash_stops_the_remote_engine():
    """Integration: shutdown() on a supercharged controller with remote
    groups wired must stop its repoint engine."""
    from repro.scenarios.spec import ScenarioSpec
    from repro.scenarios.testbed import build_scenario

    spec = ScenarioSpec(
        name="crash", num_prefixes=10, supercharged=True, num_providers=2,
        monitored_flows=2, seed=1, remote_groups=True,
    ).validate()
    sim = Simulator(seed=1)
    lab = build_scenario(sim, spec)
    lab.start()
    lab.load_feeds()
    lab.wait_converged()
    controller = lab.controllers[0]
    controller.shutdown()
    assert controller.remote_engine._stopped
    assert not controller.remote_engine.flush_pending


def test_engine_rejects_non_positive_holddown():
    harness = Harness()
    with pytest.raises(ValueError):
        RemoteRepointEngine(
            harness.sim,
            harness.planner,
            harness.provisioner,
            peer_alive=lambda ip: True,
            apply_actions=lambda actions: None,
            holddown=0.0,
        )
