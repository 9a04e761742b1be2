"""Tests for the switch-side provisioning pieces: REST facade, flow
provisioner, the controller answering ARP for its virtual next hops and
the Listing 2 convergence procedure."""

import pytest

from repro.core.backup_groups import (
    ActionKind,
    BackupGroup,
    BackupGroupManager,
    ProvisioningAction,
)
from repro.core.controller import ControllerConfig, SuperchargedController
from repro.core.convergence import DataPlaneConvergence
from repro.core.flow_provisioner import GROUP_RULE_PRIORITY, FlowProvisioner, NextHopLocation
from repro.core.rest_api import FloodlightRestApi, StaticFlowEntry
from repro.core.vnh_allocator import VnhAllocator
from repro.net.addresses import BROADCAST_MAC, IPv4Address, IPv4Prefix, MacAddress
from repro.net.links import Link, Port
from repro.net.packets import ArpOp, ArpPacket, EthernetFrame, EtherType
from repro.openflow.controller_channel import ControllerChannel
from repro.openflow.flow_table import FlowMatch
from repro.openflow.messages import FlowMod, FlowModCommand, PacketIn
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.engine import Simulator

R2 = IPv4Address("10.0.0.2")
R3 = IPv4Address("10.0.0.3")
R2_MAC = MacAddress("00:00:00:00:00:02")
R3_MAC = MacAddress("00:00:00:00:00:03")
ROUTER_MAC = MacAddress("00:00:00:00:00:01")
LOCATIONS = {
    R2: NextHopLocation(mac=R2_MAC, switch_port=2),
    R3: NextHopLocation(mac=R3_MAC, switch_port=3),
}


def _switch_with_channel(sim, flow_mod_latency=0.002):
    switch = OpenFlowSwitch(sim, "sw", flow_mod_latency)
    channel = ControllerChannel(sim, latency=0.001)
    switch.attach_controller(channel)
    return switch, channel


def _group(manager_pool="10.0.0.128/25"):
    allocator = VnhAllocator(IPv4Prefix(manager_pool))
    vnh, vmac = allocator.allocate()
    return BackupGroup(key=(R2, R3), vnh=vnh, vmac=vmac)


class TestFloodlightRestApi:
    def test_push_installs_flow_after_latencies(self, sim):
        switch, channel = _switch_with_channel(sim)
        api = FloodlightRestApi(sim, channel, call_latency=0.01)
        entry = StaticFlowEntry("g1", eth_dst=MacAddress(0xFF), set_eth_dst=R2_MAC, output_port=2)
        api.push(entry)
        sim.run()
        assert len(switch.flow_table) == 1
        assert api.calls == 1
        assert api.get("g1") == entry

    def test_push_same_name_modifies_existing_rule(self, sim):
        switch, channel = _switch_with_channel(sim)
        api = FloodlightRestApi(sim, channel)
        vmac = MacAddress(0xFF)
        api.push(StaticFlowEntry("g1", eth_dst=vmac, set_eth_dst=R2_MAC, output_port=2))
        sim.run()
        api.push(StaticFlowEntry("g1", eth_dst=vmac, set_eth_dst=R3_MAC, output_port=3))
        sim.run()
        assert len(switch.flow_table) == 1
        entry = switch.flow_table.find(FlowMatch(eth_dst=vmac), 100)
        assert entry.actions.set_eth_dst == R3_MAC
        assert entry.actions.output_port == 3

    def test_list_reflects_current_entries(self, sim):
        _switch, channel = _switch_with_channel(sim)
        api = FloodlightRestApi(sim, channel)
        api.push(StaticFlowEntry("a", eth_dst=MacAddress(1), set_eth_dst=None, output_port=1))
        api.push(StaticFlowEntry("b", eth_dst=MacAddress(2), set_eth_dst=None, output_port=2))
        assert {entry.name for entry in api.list()} == {"a", "b"}

    def test_negative_latency_rejected(self, sim):
        _switch, channel = _switch_with_channel(sim)
        with pytest.raises(ValueError):
            FloodlightRestApi(sim, channel, call_latency=-1.0)


class TestFlowProvisioner:
    def _provisioner(self, sim):
        switch, channel = _switch_with_channel(sim)
        api = FloodlightRestApi(sim, channel, call_latency=0.001)
        provisioner = FlowProvisioner(api, LOCATIONS.get)
        return switch, provisioner

    def test_provision_group_points_at_primary(self, sim):
        switch, provisioner = self._provisioner(sim)
        group = _group()
        assert provisioner.provision_group(group) is True
        sim.run()
        entry = switch.flow_table.find(FlowMatch(eth_dst=group.vmac), GROUP_RULE_PRIORITY)
        assert entry.actions.set_eth_dst == R2_MAC
        assert entry.actions.output_port == 2
        assert provisioner.active_next_hop(group) == R2

    def test_redirect_group_to_backup(self, sim):
        switch, provisioner = self._provisioner(sim)
        group = _group()
        provisioner.provision_group(group)
        sim.run()
        assert provisioner.redirect_group(group, R3) is True
        sim.run()
        entry = switch.flow_table.find(FlowMatch(eth_dst=group.vmac), GROUP_RULE_PRIORITY)
        assert entry.actions.set_eth_dst == R3_MAC
        assert entry.actions.output_port == 3

    def test_redirect_to_unknown_next_hop_fails(self, sim):
        _switch, provisioner = self._provisioner(sim)
        group = _group()
        assert provisioner.redirect_group(group, IPv4Address("10.0.0.9")) is False

    def test_duplicate_programming_suppressed(self, sim):
        _switch, provisioner = self._provisioner(sim)
        group = _group()
        provisioner.provision_group(group)
        provisioner.provision_group(group)
        assert provisioner.rules_pushed == 1

    def test_single_group_calls_equal_a_batch_of_one(self):
        # provision_group / redirect_group are redirect_groups of one pair:
        # same flow table, counters, REST calls, event names and instants.
        def run(provision, redirect):
            sim = Simulator(seed=3)
            switch, provisioner = self._provisioner(sim)
            events = []
            sim.set_observer(lambda name, when: events.append((name, when)))
            group = _group()
            outcomes = [provision(provisioner, group)]
            sim.run()
            outcomes.append(redirect(provisioner, group))
            outcomes.append(redirect(provisioner, group))  # already there: no push
            sim.run()
            return (
                outcomes,
                switch.flow_table.entries(),
                switch.flow_mods_applied,
                provisioner.rules_pushed,
                provisioner.batches_pushed,
                provisioner._rest.calls,
                events,
            )

        single = run(
            lambda p, group: p.provision_group(group),
            lambda p, group: p.redirect_group(group, R3),
        )
        batch = run(
            lambda p, group: p.provision_groups([group])[0],
            lambda p, group: p.redirect_groups([(group, R3)])[0],
        )
        assert single == batch
        assert single[0] == [True, True, True]
        assert single[2:6] == (2, 2, 2, 2)
        assert [name for name, _when in single[6]] == [
            "rest:flow-push", "of-channel:to-switch", "sw:flow-mod",
        ] * 2


class TestDataPlaneConvergence:
    def _setup(self, sim):
        switch, channel = _switch_with_channel(sim)
        api = FloodlightRestApi(sim, channel, call_latency=0.001)
        provisioner = FlowProvisioner(api, LOCATIONS.get)
        allocator = VnhAllocator(IPv4Prefix("10.0.0.128/25"))
        manager = BackupGroupManager(allocator)
        convergence = DataPlaneConvergence(manager, provisioner)
        return switch, provisioner, manager, convergence

    def _populate(self, manager, provisioner):
        """Create two groups: one protected by R3, one primary'd on R3."""
        from repro.bgp.attributes import AsPath, PathAttributes
        from repro.bgp.rib import LocRib, Route, RouteSource

        loc_rib = LocRib()

        def route(prefix, peer, pref):
            return Route(
                prefix=prefix,
                attributes=PathAttributes(next_hop=peer, as_path=AsPath((65001,)), local_pref=pref),
                source=RouteSource(peer_ip=peer, peer_asn=65001, router_id=peer),
            )

        for prefix_text, primary, backup in (
            ("1.0.0.0/24", R2, R3),
            ("2.0.0.0/24", R3, R2),
        ):
            prefix = IPv4Prefix(prefix_text)
            for peer, pref in ((primary, 200), (backup, 100)):
                change = loc_rib.update(route(prefix, peer, pref))
                for action in manager.process_change(change):
                    if action.group is not None and action.kind.name == "GROUP_CREATED":
                        provisioner.provision_group(action.group)

    def test_listing2_redirects_only_affected_groups(self, sim):
        switch, provisioner, manager, convergence = self._setup(sim)
        self._populate(manager, provisioner)
        sim.run()
        event = convergence.peer_down(R2, now=sim.now)
        sim.run()
        assert event.groups_redirected == 1
        assert event.groups_unprotected == 0
        redirected = event.redirected_groups[0]
        assert redirected.primary == R2
        entry = switch.flow_table.find(FlowMatch(eth_dst=redirected.vmac), GROUP_RULE_PRIORITY)
        assert entry.actions.set_eth_dst == R3_MAC
        # The group whose primary is R3 must be untouched.
        untouched = manager.groups_with_primary(R3)[0]
        other_entry = switch.flow_table.find(FlowMatch(eth_dst=untouched.vmac), GROUP_RULE_PRIORITY)
        assert other_entry.actions.set_eth_dst == R3_MAC

    def test_flow_rewrites_bounded_by_peer_count(self, sim):
        _switch, provisioner, manager, convergence = self._setup(sim)
        self._populate(manager, provisioner)
        before = provisioner.rules_pushed
        convergence.peer_down(R2, now=0.0)
        assert provisioner.rules_pushed - before <= len(LOCATIONS)

    def test_peer_restored_points_back_to_primary(self, sim):
        switch, provisioner, manager, convergence = self._setup(sim)
        self._populate(manager, provisioner)
        sim.run()
        convergence.peer_down(R2, now=sim.now)
        sim.run()
        event = convergence.peer_restored(R2, now=sim.now)
        sim.run()
        assert event.groups_redirected == 1
        group = manager.groups_with_primary(R2)[0]
        entry = switch.flow_table.find(FlowMatch(eth_dst=group.vmac), GROUP_RULE_PRIORITY)
        assert entry.actions.set_eth_dst == R2_MAC

    def test_group_without_usable_backup_reported_unprotected(self, sim):
        _switch, provisioner, manager, convergence = self._setup(sim)
        allocator_group = BackupGroup(
            key=(R2, R2), vnh=IPv4Address("10.0.0.140"), vmac=MacAddress(0x020000000099)
        )
        manager._groups[(R2, R2)] = allocator_group  # degenerate group
        event = convergence.peer_down(R2, now=0.0)
        assert event.groups_unprotected >= 1

    def test_events_are_recorded(self, sim):
        _switch, provisioner, manager, convergence = self._setup(sim)
        self._populate(manager, provisioner)
        convergence.peer_down(R2, now=1.0)
        convergence.peer_restored(R2, now=2.0)
        assert len(convergence.events) == 2
        assert convergence.events[0].triggered_at == 1.0


class TestVirtualArpResponder:
    """The controller is the ARP responder of its virtual next hops: each
    VNH → VMAC binding is one more address its host ARP handler owns."""

    CTRL_IP, CTRL_MAC = IPv4Address("10.0.0.100"), MacAddress("00:00:00:00:00:64")
    ROUTER_IP = IPv4Address("10.0.0.1")

    def _controller(self, sim):
        """A controller wired to a bare port (its ARP handler answers
        there) and to an OpenFlow channel, with one provisioned group."""
        controller = SuperchargedController(sim, "ctrl", ControllerConfig(
            ip=self.CTRL_IP, mac=self.CTRL_MAC, subnet=IPv4Prefix("10.0.0.0/24"),
            asn=64512, router_id=self.CTRL_IP))
        wire, packet_outs = Port("wire", 0), []
        heard = []
        wire.set_frame_handler(lambda frame, port: heard.append(frame))
        Link(sim, wire, controller.port, latency=1e-5)
        channel = ControllerChannel(sim, latency=0.001)
        channel.connect_switch(packet_outs.append)
        controller.attach_switch(channel)
        group = _group()
        controller._apply_actions([ProvisioningAction(ActionKind.GROUP_CREATED, group=group)])
        sim.run()
        del packet_outs[:]  # the group's flow-mod batch
        return controller, group, wire, heard, channel, packet_outs

    def _request(self, target_ip, op=ArpOp.REQUEST):
        packet = ArpPacket(
            op=op,
            sender_mac=ROUTER_MAC,
            sender_ip=self.ROUTER_IP,
            target_mac=MacAddress(0),
            target_ip=target_ip,
        )
        return EthernetFrame(ROUTER_MAC, BROADCAST_MAC, EtherType.ARP, packet)

    def test_answers_registered_vnh(self, sim):
        controller, group, wire, heard, _channel, _outs = self._controller(sim)
        assert controller.vnh_bindings() == {group.vnh: group.vmac}
        wire.send(self._request(group.vnh))
        sim.run()
        (reply,) = heard
        assert reply.payload.op is ArpOp.REPLY
        assert reply.payload.sender_ip == group.vnh
        assert reply.payload.sender_mac == group.vmac
        assert reply.dst_mac == ROUTER_MAC

    def test_ignores_unregistered_and_replies(self, sim):
        _controller, group, wire, heard, _channel, _outs = self._controller(sim)
        wire.send(self._request(IPv4Address("10.0.0.201")))
        wire.send(self._request(group.vnh, op=ArpOp.REPLY))
        sim.run()
        assert heard == []

    def test_packet_in_with_non_arp_payload_ignored(self, sim):
        """A packet-in changes nothing at the controller: ARP requests
        reach its port through the switch's flood, never the channel."""
        _controller, group, _wire, _heard, channel, packet_outs = self._controller(sim)
        frame = EthernetFrame(ROUTER_MAC, MacAddress(1), EtherType.IPV4, object())
        channel.send_packet_in(PacketIn(frame=frame, in_port=1))
        channel.send_packet_in(PacketIn(frame=self._request(group.vnh), in_port=1))
        sim.run()
        assert packet_outs == []
