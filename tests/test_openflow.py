"""Tests for the flow table, switch data plane and controller channel."""

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.links import Link, Port
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram
from repro.openflow.controller_channel import ControllerChannel
from repro.openflow.flow_table import (
    Actions,
    FlowEntry,
    FlowMatch,
    FlowTable,
    FlowTableError,
)
from repro.openflow.messages import (
    FlowMod,
    FlowModBatch,
    FlowModCommand,
    PacketIn,
    PacketOut,
    PortStatus,
    PortStatusReason,
)
from repro.openflow.switch import OpenFlowSwitch
from repro.sim.engine import Simulator

MAC_1 = MacAddress("00:00:00:00:00:01")
MAC_2 = MacAddress("00:00:00:00:00:02")
VMAC = MacAddress("02:00:5e:00:00:01")


def _frame(dst_mac=MAC_2, ethertype=EtherType.IPV4):
    packet = IPv4Packet(
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("1.0.0.1"),
        protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1, dst_port=2),
    )
    return EthernetFrame(MAC_1, dst_mac, ethertype, packet)


class TestFlowTable:
    def test_priority_ordering(self):
        table = FlowTable()
        low = FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=1), priority=10)
        high = FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=2), priority=200)
        table.install(low)
        table.install(high)
        entry = table.lookup(_frame(), in_port=5)
        assert entry.actions.output_port == 2

    def test_wildcard_match(self):
        table = FlowTable()
        table.install(FlowEntry(FlowMatch(), Actions(output_port=3), priority=1))
        assert table.lookup(_frame(), in_port=9).actions.output_port == 3

    def test_match_on_in_port_and_destination_mac(self):
        match = FlowMatch(in_port=4, eth_dst=MAC_2)
        assert match.matches(_frame(), in_port=4)
        assert not match.matches(_frame(), in_port=5)
        assert not match.matches(_frame(dst_mac=VMAC), in_port=4)

    def test_install_replaces_same_match_and_priority(self):
        table = FlowTable()
        match = FlowMatch(eth_dst=VMAC)
        table.install(FlowEntry(match, Actions(output_port=1), priority=100))
        table.install(FlowEntry(match, Actions(output_port=2), priority=100))
        assert len(table) == 1
        assert table.lookup(_frame(dst_mac=VMAC), in_port=1).actions.output_port == 2

    def test_modify_existing_entry(self):
        table = FlowTable()
        match = FlowMatch(eth_dst=VMAC)
        table.install(FlowEntry(match, Actions(set_eth_dst=MAC_2, output_port=2), priority=100))
        assert table.modify(match, 100, Actions(set_eth_dst=MAC_1, output_port=3)) is True
        entry = table.lookup(_frame(dst_mac=VMAC), in_port=1)
        assert entry.actions.output_port == 3
        assert table.modify(FlowMatch(eth_dst=MAC_1), 100, Actions()) is False

    def test_remove_by_match(self):
        table = FlowTable()
        match = FlowMatch(eth_dst=VMAC)
        table.install(FlowEntry(match, Actions(output_port=1), priority=100))
        assert table.remove(match) == 1
        assert table.remove(match) == 0

    def test_capacity_enforced(self):
        table = FlowTable(capacity=2)
        table.install(FlowEntry(FlowMatch(eth_dst=MAC_1), Actions(output_port=1)))
        table.install(FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=1)))
        with pytest.raises(FlowTableError):
            table.install(FlowEntry(FlowMatch(eth_dst=VMAC), Actions(output_port=1)))

    def test_actions_apply_rewrites(self):
        actions = Actions(set_eth_dst=MAC_2, output_port=1)
        rewritten = actions.apply(_frame(dst_mac=VMAC))
        assert rewritten.dst_mac == MAC_2
        assert rewritten.src_mac == MAC_1
        frame = _frame()
        assert Actions(output_port=1).apply(frame) is frame

    def test_no_output_action_is_a_drop(self):
        assert Actions().is_drop
        assert not Actions(output_port=1).is_drop



class TestControllerChannel:
    def test_flow_mod_delivery_with_latency(self, sim):
        channel = ControllerChannel(sim, latency=0.01)
        received = []
        channel.connect_switch(lambda message: received.append((sim.now, message)))
        flow_mod = FlowMod(FlowModCommand.ADD, FlowMatch(eth_dst=VMAC), Actions(output_port=1))
        channel.send_flow_mod(flow_mod)
        sim.run()
        assert received[0][0] == pytest.approx(0.01)
        assert received[0][1] is flow_mod

    def test_packet_in_fans_out_to_all_controllers(self, sim):
        channel = ControllerChannel(sim)
        seen_a, seen_b = [], []
        channel.connect_controller(seen_a.append)
        channel.connect_controller(seen_b.append)
        channel.send_packet_in(PacketIn(frame=_frame(), in_port=1))
        sim.run()
        assert len(seen_a) == 1 and len(seen_b) == 1

    def test_negative_latency_rejected(self, sim):
        with pytest.raises(ValueError):
            ControllerChannel(sim, latency=-0.1)


class TestSwitch:
    def _switch_with_hosts(self, sim, flow_mod_latency=2e-3):
        switch = OpenFlowSwitch(sim, "sw", flow_mod_latency)
        received = {1: [], 2: []}
        host_ports = {}
        for number in (1, 2):
            host_port = Port(f"host{number}", 0)
            host_port.set_frame_handler(
                lambda frame, port, n=number: received[n].append(frame)
            )
            Link(sim, host_port, switch.add_port(number), latency=0.0001)
            host_ports[number] = host_port
        return switch, host_ports, received

    def test_forwarding_follows_flow_rule(self, sim):
        switch, hosts, received = self._switch_with_hosts(sim)
        switch.flow_table.install(
            FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=2), priority=100)
        )
        hosts[1].send(_frame())
        sim.run()
        assert len(received[2]) == 1
        assert switch.frames_forwarded == 1

    def test_mac_rewrite_applied_before_output(self, sim):
        switch, hosts, received = self._switch_with_hosts(sim)
        switch.flow_table.install(
            FlowEntry(
                FlowMatch(eth_dst=VMAC),
                Actions(set_eth_dst=MAC_2, output_port=2),
                priority=200,
            )
        )
        hosts[1].send(_frame(dst_mac=VMAC))
        sim.run()
        assert received[2][0].dst_mac == MAC_2

    def test_table_miss_flood_excludes_ingress(self, sim):
        switch, hosts, received = self._switch_with_hosts(sim)
        hosts[1].send(_frame())
        sim.run()
        assert len(received[2]) == 1
        assert received[1] == []

    def test_flow_mod_add_takes_install_latency(self, sim):
        switch, hosts, received = self._switch_with_hosts(sim, flow_mod_latency=0.5)
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        channel.send_flow_mod(
            FlowMod(FlowModCommand.ADD, FlowMatch(eth_dst=MAC_2), Actions(output_port=2))
        )
        sim.run(until=0.4)
        assert len(switch.flow_table) == 0
        sim.run(until=1.0)
        assert len(switch.flow_table) == 1

    def test_flow_mod_modify_of_missing_entry_adds_it(self, sim):
        switch, _hosts, _received = self._switch_with_hosts(sim)
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        channel.send_flow_mod(
            FlowMod(FlowModCommand.MODIFY, FlowMatch(eth_dst=VMAC), Actions(output_port=2))
        )
        sim.run()
        assert len(switch.flow_table) == 1

    def test_flow_mod_delete(self, sim):
        switch, _hosts, _received = self._switch_with_hosts(sim)
        switch.flow_table.install(
            FlowEntry(FlowMatch(eth_dst=VMAC), Actions(output_port=2), priority=100)
        )
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        channel.send_flow_mod(FlowMod(FlowModCommand.DELETE, FlowMatch(eth_dst=VMAC), priority=100))
        sim.run()
        assert len(switch.flow_table) == 0

    def test_packet_out_injected_into_data_plane(self, sim):
        switch, _hosts, received = self._switch_with_hosts(sim)
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        channel.send_packet_out(PacketOut(frame=_frame(), out_port=2))
        sim.run()
        assert len(received[2]) == 1

    def test_port_status_on_link_failure(self, sim):
        switch, hosts, _received = self._switch_with_hosts(sim)
        channel = ControllerChannel(sim, latency=0.001)
        notifications = []
        channel.connect_controller(notifications.append)
        switch.attach_controller(channel)
        hosts[1].link.fail()
        sim.run()
        statuses = [n for n in notifications if isinstance(n, PortStatus)]
        assert statuses and statuses[0].port == 1
        assert statuses[0].reason is PortStatusReason.LINK_DOWN

    def test_output_to_down_port_drops(self, sim):
        switch, hosts, received = self._switch_with_hosts(sim)
        switch.flow_table.install(
            FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=2), priority=100)
        )
        hosts[2].link.fail()
        hosts[1].send(_frame())
        sim.run()
        assert received[2] == []
        assert switch.frames_dropped == 1

    def test_flow_mod_applied_listener(self, sim):
        switch, _hosts, _received = self._switch_with_hosts(sim)
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        applied = []
        switch.on_flow_mod_applied(applied.append)
        channel.send_flow_mod(
            FlowMod(FlowModCommand.ADD, FlowMatch(eth_dst=MAC_2), Actions(output_port=2))
        )
        sim.run()
        assert len(applied) == 1

    def test_rejected_flow_mod_is_not_counted_as_applied(self, sim):
        # TCAM full: the third ADD raises out of the programming event.  It
        # is neither counted nor announced to the listeners.
        switch = OpenFlowSwitch(sim, "sw")
        switch.flow_table = FlowTable(capacity=2)
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        applied = []
        switch.on_flow_mod_applied(applied.append)
        mods = [
            FlowMod(
                FlowModCommand.ADD,
                FlowMatch(eth_dst=MacAddress(0x020000000000 + i)),
                Actions(output_port=2),
            )
            for i in range(3)
        ]
        for delay, mod in enumerate(mods):
            sim.schedule(float(delay), lambda mod=mod: channel.send_flow_mod(mod))
        with pytest.raises(FlowTableError):
            sim.run()
        assert switch.flow_mods_applied == 2
        assert len(switch.flow_table) == 2
        assert applied == mods[:2]

    def test_lone_flow_mod_equals_bundle_of_one(self, sim):
        # Same rule, once bare and once as a bundle of one: same table,
        # counters, listener calls and instants; only the event name says
        # which message type carried it.
        mod = FlowMod(
            FlowModCommand.MODIFY, FlowMatch(eth_dst=VMAC), Actions(output_port=2), priority=7
        )
        outcomes = []
        for send in ("send_flow_mod", "send_flow_mod_batch"):
            run = Simulator(seed=1)
            switch = OpenFlowSwitch(run, "sw", flow_mod_latency=0.25)
            channel = ControllerChannel(run, latency=0.001)
            switch.attach_controller(channel)
            heard = []
            switch.on_flow_mod_applied(lambda m, run=run, heard=heard: heard.append((run.now, m)))
            names = []
            run.set_observer(lambda name, when, names=names: names.append((name, when)))
            message = mod if send == "send_flow_mod" else FlowModBatch(mods=(mod,))
            getattr(channel, send)(message)
            run.run()
            outcomes.append(
                (switch.flow_table.entries(), switch.flow_mods_applied, heard, names)
            )
        single, bundle = outcomes
        assert single[:3] == bundle[:3]
        assert single[0][0].installed_at == 0.251
        assert [when for _name, when in single[3]] == [when for _name, when in bundle[3]]
        assert single[3][-1][0] == "sw:flow-mod"
        assert bundle[3][-1][0] == "sw:flow-mod-batch"

    def test_duplicate_port_number_rejected(self, sim):
        switch = OpenFlowSwitch(sim, "sw")
        switch.add_port(1)
        with pytest.raises(ValueError):
            switch.add_port(1)
