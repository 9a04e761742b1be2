"""Tests for the backup-group manager (the paper's Listing 1)."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import LocRib, Route, RouteSource
from repro.core.backup_groups import ActionKind, BackupGroupManager
from repro.core.vnh_allocator import VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix

PREFIX = IPv4Prefix("1.0.0.0/24")
OTHER = IPv4Prefix("2.0.0.0/24")
R2 = IPv4Address("10.0.0.2")
R3 = IPv4Address("10.0.0.3")
R4 = IPv4Address("10.0.0.4")


def _manager():
    return BackupGroupManager(VnhAllocator(IPv4Prefix("10.0.0.128/25")))


def _route(peer, local_pref, prefix=PREFIX):
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            next_hop=peer, as_path=AsPath((65001,)), local_pref=local_pref
        ),
        source=RouteSource(peer_ip=peer, peer_asn=65001, router_id=peer),
    )


class Scenario:
    """A Loc-RIB plus manager, tracking emitted actions."""

    def __init__(self):
        self.loc_rib = LocRib()
        self.manager = _manager()

    def announce(self, peer, local_pref, prefix=PREFIX):
        change = self.loc_rib.update(_route(peer, local_pref, prefix))
        return self.manager.process_change(change)

    def withdraw(self, peer, prefix=PREFIX):
        change = self.loc_rib.withdraw(prefix, peer)
        return self.manager.process_change(change)

    def withdraw_peer(self, peer):
        actions = []
        for change in self.loc_rib.withdraw_peer(peer):
            actions.extend(self.manager.process_change(change))
        return actions


def kinds(actions):
    return [action.kind for action in actions]


def test_single_path_announced_with_real_next_hop():
    scenario = Scenario()
    actions = scenario.announce(R2, 200)
    assert kinds(actions) == [ActionKind.ANNOUNCE_REAL]
    assert actions[0].next_hop == R2
    assert scenario.manager.group_for_prefix(PREFIX) is None


def test_second_path_creates_group_and_virtual_announcement():
    scenario = Scenario()
    scenario.announce(R2, 200)
    actions = scenario.announce(R3, 100)
    assert kinds(actions) == [ActionKind.GROUP_CREATED, ActionKind.ANNOUNCE_VIRTUAL]
    group = scenario.manager.group_for_prefix(PREFIX)
    assert group.key == (R2, R3)
    assert actions[1].next_hop == group.vnh


def test_prefixes_with_same_backup_group_share_vnh():
    scenario = Scenario()
    scenario.announce(R2, 200, PREFIX)
    scenario.announce(R3, 100, PREFIX)
    scenario.announce(R2, 200, OTHER)
    scenario.announce(R3, 100, OTHER)
    group_a = scenario.manager.group_for_prefix(PREFIX)
    group_b = scenario.manager.group_for_prefix(OTHER)
    assert group_a is group_b
    assert group_a.prefix_count == 2
    assert len(scenario.manager.groups()) == 1


def test_unchanged_group_produces_no_actions():
    scenario = Scenario()
    scenario.announce(R2, 200)
    scenario.announce(R3, 100)
    # Re-announcing the backup with the same ranking changes nothing.
    actions = scenario.announce(R3, 100)
    assert actions == []


def test_group_change_reannounces_with_new_vnh():
    scenario = Scenario()
    scenario.announce(R2, 200)
    scenario.announce(R3, 100)
    first_group = scenario.manager.group_for_prefix(PREFIX)
    actions = scenario.announce(R4, 150)  # becomes the new backup
    assert ActionKind.ANNOUNCE_VIRTUAL in kinds(actions)
    second_group = scenario.manager.group_for_prefix(PREFIX)
    assert second_group.key == (R2, R4)
    assert second_group is not first_group
    assert first_group.prefix_count == 0


def test_primary_loss_falls_back_to_real_announcement():
    scenario = Scenario()
    scenario.announce(R2, 200)
    scenario.announce(R3, 100)
    actions = scenario.withdraw_peer(R2)
    assert ActionKind.ANNOUNCE_REAL in kinds(actions)
    announce = [a for a in actions if a.kind is ActionKind.ANNOUNCE_REAL][0]
    assert announce.next_hop == R3
    assert scenario.manager.group_for_prefix(PREFIX) is None


def test_full_withdrawal_emits_withdraw():
    scenario = Scenario()
    scenario.announce(R2, 200)
    actions = scenario.withdraw(R2)
    assert kinds(actions) == [ActionKind.WITHDRAW]


def test_withdraw_of_unknown_prefix_is_silent():
    scenario = Scenario()
    actions = scenario.withdraw(R2)
    assert actions == []


def test_groups_with_primary_listing2_input():
    scenario = Scenario()
    scenario.announce(R2, 200, PREFIX)
    scenario.announce(R3, 100, PREFIX)
    scenario.announce(R3, 200, OTHER)
    scenario.announce(R2, 100, OTHER)
    manager = scenario.manager
    assert len(manager.groups_with_primary(R2)) == 1
    assert len(manager.groups_with_primary(R3)) == 1
    assert manager.groups_with_primary(R2)[0].key == (R2, R3)
    assert manager.groups_with_primary(R3)[0].key == (R3, R2)


def test_group_count_bounded_by_n_times_n_minus_one():
    scenario = Scenario()
    peers = [IPv4Address(f"10.0.0.{10 + index}") for index in range(4)]
    prefixes = [IPv4Prefix(f"{20 + index}.0.0.0/24") for index in range(40)]
    for index, prefix in enumerate(prefixes):
        primary = peers[index % 4]
        backup = peers[(index + 1 + index // 4) % 4]
        if backup == primary:
            backup = peers[(index + 2) % 4]
        scenario.announce(primary, 200, prefix)
        scenario.announce(backup, 100, prefix)
    assert len(scenario.manager.groups()) <= 4 * 3


def test_identical_next_hops_do_not_form_group():
    # Two paths via the same next hop cannot protect each other.
    scenario = Scenario()
    loc_rib = scenario.loc_rib
    first = _route(R2, 200)
    second = Route(
        prefix=PREFIX,
        attributes=PathAttributes(next_hop=R2, as_path=AsPath((65005,)), local_pref=100),
        source=RouteSource(
            peer_ip=IPv4Address("10.0.0.9"), peer_asn=65005, router_id=IPv4Address("10.0.0.9")
        ),
    )
    scenario.manager.process_change(loc_rib.update(first))
    actions = scenario.manager.process_change(loc_rib.update(second))
    assert kinds(actions) == [ActionKind.ANNOUNCE_REAL]


def test_group_size_larger_than_two():
    manager = BackupGroupManager(VnhAllocator(IPv4Prefix("10.0.0.128/25")), group_size=3)
    loc_rib = LocRib()
    manager.process_change(loc_rib.update(_route(R2, 300)))
    manager.process_change(loc_rib.update(_route(R3, 200)))
    actions = manager.process_change(loc_rib.update(_route(R4, 100)))
    group = manager.group_for_prefix(PREFIX)
    assert group.key == (R2, R3, R4)


def test_invalid_group_size_rejected():
    import pytest

    with pytest.raises(ValueError):
        BackupGroupManager(VnhAllocator(IPv4Prefix("10.0.0.128/25")), group_size=1)


def test_updates_processed_counter():
    scenario = Scenario()
    scenario.announce(R2, 200)
    scenario.announce(R3, 100)
    assert scenario.manager.updates_processed == 2
