"""Tests for the data-plane fast-path APIs added by the rewrite:
batched flow-mods (table → switch → channel → REST → provisioner),
batched event scheduling, the live pending-event counter, and LPM trie
branch pruning."""

import pytest

from repro.core.backup_groups import BackupGroup
from repro.core.flow_provisioner import GROUP_RULE_PRIORITY, FlowProvisioner, NextHopLocation
from repro.core.rest_api import FloodlightRestApi, StaticFlowEntry
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram
from repro.openflow.controller_channel import ControllerChannel
from repro.openflow.flow_table import Actions, FlowEntry, FlowMatch, FlowTable
from repro.openflow.messages import FlowMod, FlowModBatch, FlowModCommand
from repro.openflow.switch import OpenFlowSwitch
from repro.router.fib import LpmTable
from repro.router.fib_updater import FibUpdater, FibWriteRequest
from repro.router.fib import Adjacency, FlatFib
from repro.sim.engine import SimulationError, Simulator

MAC_1 = MacAddress("00:00:00:00:00:01")
MAC_2 = MacAddress("00:00:00:00:00:02")
MAC_3 = MacAddress("00:00:00:00:00:03")
R2 = IPv4Address("10.0.0.2")
R3 = IPv4Address("10.0.0.3")
LOCATIONS = {
    R2: NextHopLocation(mac=MAC_2, switch_port=2),
    R3: NextHopLocation(mac=MAC_3, switch_port=3),
}


def _frame(dst_mac=MAC_2):
    packet = IPv4Packet(
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("1.0.0.1"),
        protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1, dst_port=2),
    )
    return EthernetFrame(MAC_1, dst_mac, EtherType.IPV4, packet)


def _mods(count, command=FlowModCommand.ADD, port=1):
    return [
        FlowMod(
            command,
            FlowMatch(eth_dst=MacAddress(0x020000000000 + i)),
            Actions(output_port=port),
        )
        for i in range(count)
    ]


class TestFlowTableApplyBatch:
    def test_batch_add_modify_delete(self):
        table = FlowTable()
        assert table.apply_batch(_mods(10), now=1.5) == 10
        assert len(table) == 10
        entry = table.find(FlowMatch(eth_dst=MacAddress(0x020000000003)), 100)
        assert entry.installed_at == 1.5
        table.apply_batch(_mods(10, FlowModCommand.MODIFY, port=7))
        assert table.find(
            FlowMatch(eth_dst=MacAddress(0x020000000003)), 100
        ).actions.output_port == 7
        assert len(table) == 10  # modify never duplicated entries
        table.apply_batch(_mods(4, FlowModCommand.DELETE))
        assert len(table) == 6

    def test_batch_modify_of_missing_entries_adds_them(self):
        table = FlowTable()
        table.apply_batch(_mods(3, FlowModCommand.MODIFY, port=9))
        assert len(table) == 3

    def test_batch_respects_capacity(self):
        from repro.openflow.flow_table import FlowTableError

        table = FlowTable(capacity=5)
        with pytest.raises(FlowTableError):
            table.apply_batch(_mods(6))
        assert len(table) == 5  # earlier mods stay applied

    def test_unknown_command_rejected(self):
        from repro.openflow.flow_table import FlowTableError

        class Bogus:
            command = "teleport"
            match = FlowMatch()
            actions = None
            priority = 100

        with pytest.raises(FlowTableError):
            FlowTable().apply_batch([Bogus()])


class TestFlowModBatchOnSwitch:
    def test_bundle_programs_after_one_latency(self, sim):
        switch = OpenFlowSwitch(sim, "sw", flow_mod_latency=0.5)
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        channel.send_flow_mod_batch(FlowModBatch(mods=tuple(_mods(8))))
        sim.run(until=0.4)
        assert len(switch.flow_table) == 0
        sim.run()
        assert len(switch.flow_table) == 8
        assert switch.flow_mods_applied == 8

    def test_bundle_fires_listener_per_mod(self, sim):
        switch = OpenFlowSwitch(sim, "sw")
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        applied = []
        switch.on_flow_mod_applied(applied.append)
        mods = tuple(_mods(5))
        channel.send_flow_mod_batch(FlowModBatch(mods=mods))
        sim.run()
        assert applied == list(mods)


class TestRestPushBatch:
    def test_push_batch_is_one_rest_call(self, sim):
        switch = OpenFlowSwitch(sim, "sw")
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        api = FloodlightRestApi(sim, channel, call_latency=0.01)
        entries = [
            StaticFlowEntry(
                f"g{i}", eth_dst=MacAddress(0x02000000AA00 + i),
                set_eth_dst=MAC_2, output_port=2,
            )
            for i in range(6)
        ]
        api.push_batch(entries)
        assert api.calls == 1
        sim.run()
        assert len(switch.flow_table) == 6
        assert {e.name for e in api.list()} == {f"g{i}" for i in range(6)}

    def test_push_batch_reissues_existing_names_as_modify(self, sim):
        switch = OpenFlowSwitch(sim, "sw")
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        api = FloodlightRestApi(sim, channel)
        vmac = MacAddress(0x02000000AA01)
        api.push(StaticFlowEntry("g", eth_dst=vmac, set_eth_dst=MAC_2, output_port=2))
        sim.run()
        api.push_batch(
            [StaticFlowEntry("g", eth_dst=vmac, set_eth_dst=MAC_3, output_port=3)]
        )
        sim.run()
        assert len(switch.flow_table) == 1
        entry = switch.flow_table.find(FlowMatch(eth_dst=vmac), 100)
        assert entry.actions.set_eth_dst == MAC_3

    def test_empty_batch_is_a_noop(self, sim):
        _switch = OpenFlowSwitch(sim, "sw")
        channel = ControllerChannel(sim, latency=0.001)
        api = FloodlightRestApi(sim, channel)
        api.push_batch([])
        assert api.calls == 0
        assert sim.run() == 0.0 and sim.events_executed == 0


class TestProvisionerBatch:
    def _setup(self, sim):
        switch = OpenFlowSwitch(sim, "sw")
        channel = ControllerChannel(sim, latency=0.001)
        switch.attach_controller(channel)
        api = FloodlightRestApi(sim, channel, call_latency=0.001)
        return switch, FlowProvisioner(api, LOCATIONS.get), api

    def _groups(self, count):
        return [
            BackupGroup(
                key=(R2, R3),
                vnh=IPv4Address(IPv4Address("10.0.0.140").value + i),
                vmac=MacAddress(0x020000BB0000 + i),
            )
            for i in range(count)
        ]

    def test_redirect_groups_batches_rules(self, sim):
        switch, provisioner, api = self._setup(sim)
        groups = self._groups(4)
        assert provisioner.provision_groups(groups) == [True] * 4
        sim.run()
        calls_before = api.calls
        outcomes = provisioner.redirect_groups([(g, R3) for g in groups])
        assert outcomes == [True] * 4
        assert api.calls == calls_before + 1  # one REST round trip for all 4
        sim.run()
        for group in groups:
            entry = switch.flow_table.find(
                FlowMatch(eth_dst=group.vmac), GROUP_RULE_PRIORITY
            )
            assert entry.actions.set_eth_dst == MAC_3
            assert provisioner.active_next_hop(group) == R3
        assert provisioner.rules_pushed == 8

    def test_redirect_groups_mixed_outcomes(self, sim):
        _switch, provisioner, api = self._setup(sim)
        groups = self._groups(3)
        provisioner.provision_groups(groups)
        sim.run()
        outcomes = provisioner.redirect_groups(
            [
                (groups[0], R3),
                (groups[1], IPv4Address("10.0.0.99")),  # unknown next hop
                (groups[2], R2),  # already programmed
            ]
        )
        assert outcomes == [True, False, True]
        # Only group[0] actually needed a rule.
        assert provisioner.rules_pushed == 3 + 1

    def test_redirect_groups_without_rewrites_makes_no_call(self, sim):
        _switch, provisioner, api = self._setup(sim)
        groups = self._groups(2)
        provisioner.provision_groups(groups)
        sim.run()
        calls_before = api.calls
        assert provisioner.redirect_groups([(g, R2) for g in groups]) == [True, True]
        assert api.calls == calls_before


class TestScheduleBatch:
    def test_batch_preserves_fifo_with_singles(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("single-a"))
        sim.schedule_batch(
            [
                (1.0, lambda: order.append("batch-a")),
                (0.5, lambda: order.append("early"), "named"),
                (1.0, lambda: order.append("batch-b")),
            ]
        )
        sim.schedule(1.0, lambda: order.append("single-b"))
        sim.run()
        assert order == ["early", "single-a", "batch-a", "batch-b", "single-b"]

    def test_batch_returns_cancellable_handles(self, sim):
        fired = []
        handles = sim.schedule_batch(
            [(0.1, lambda: fired.append(1)), (0.2, lambda: fired.append(2))]
        )
        assert handles[1].cancel() is True
        sim.run()
        assert fired == [1]
        assert handles[0].executed and handles[1].cancelled

    def test_batch_rejects_bad_delays(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_batch([(-0.1, lambda: None)])
        with pytest.raises(SimulationError):
            sim.schedule_batch([(float("inf"), lambda: None)])


class TestCancelledEvents:
    """A cancelled event never runs and is not counted in ``events_executed``."""

    def test_cancelled_events_never_run(self, sim):
        fired = []
        handles = [sim.schedule(float(i + 1), lambda i=i: fired.append(i)) for i in range(5)]
        assert handles[2].cancel() is True
        assert handles[2].cancel() is False  # a second cancel is a no-op
        sim.run(until=2.5)
        assert fired == [0, 1] and sim.events_executed == 2
        sim.run()
        assert fired == [0, 1, 3, 4] and sim.events_executed == 4

    def test_cancelled_batch_events_never_run(self, sim):
        fired = []
        handles = sim.schedule_batch(
            [(1.0, lambda: fired.append(1)), (2.0, lambda: fired.append(2))]
        )
        assert handles[0].cancel() is True
        sim.run()
        assert fired == [2] and sim.events_executed == 1

    def test_cancel_from_inside_callback(self, sim):
        fired = []
        later = sim.schedule(2.0, lambda: fired.append("later"))
        sim.schedule(1.0, lambda: later.cancel())
        sim.run()
        assert fired == [] and later.cancelled
        assert sim.events_executed == 1


class TestLpmPruning:
    def test_remove_prunes_leaf_chain(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.1.2.0/24"), "a")
        table.remove(IPv4Prefix("10.1.2.0/24"))
        assert len(table) == 0
        assert table.lookup(IPv4Address("10.1.2.3")) is None

    def test_remove_splices_pass_through_nodes(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/16"), "left")
        table.insert(IPv4Prefix("10.128.0.0/16"), "right")
        table.remove(IPv4Prefix("10.0.0.0/16"))
        assert table.lookup(IPv4Address("10.0.0.1")) is None
        assert table.lookup(IPv4Address("10.128.0.1"))[1] == "right"

    def test_remove_keeps_valued_ancestors(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
        table.insert(IPv4Prefix("10.1.0.0/16"), "fine")
        table.remove(IPv4Prefix("10.1.0.0/16"))
        assert table.lookup(IPv4Address("10.1.2.3"))[1] == "coarse"

    def test_churn_does_not_grow_node_count(self):
        table = LpmTable()
        stable = [IPv4Prefix(f"{i}.0.0.0/8") for i in range(1, 21)]
        for prefix in stable:
            table.insert(prefix, "stable")
        churn = [IPv4Prefix(f"172.16.{i}.0/24") for i in range(200)]
        for _round in range(5):
            for prefix in churn:
                table.insert(prefix, "churn")
            for prefix in churn:
                assert table.remove(prefix) is True
        assert len(table) == len(stable)
        assert table.lookup(IPv4Address("172.16.7.1")) is None

    def test_lookup_and_exact_agree_after_churn(self):
        table = LpmTable()
        table.insert(IPv4Prefix("0.0.0.0/0"), "default")
        for i in range(50):
            table.insert(IPv4Prefix(f"10.{i}.0.0/16"), f"v{i}")
        for i in range(0, 50, 2):
            table.remove(IPv4Prefix(f"10.{i}.0.0/16"))
        for i in range(50):
            expected = "default" if i % 2 == 0 else f"v{i}"
            assert table.lookup(IPv4Address(f"10.{i}.0.1"))[1] == expected
            exact = table.exact(IPv4Prefix(f"10.{i}.0.0/16"))
            assert exact == (None if i % 2 == 0 else f"v{i}")


class TestFibUpdaterBatch:
    def test_enqueue_batch_preserves_order_and_timing(self, sim):
        fib = FlatFib()
        updater = FibUpdater(sim, fib)
        adj = Adjacency(mac=MAC_2, interface="core")
        requests = [
            FibWriteRequest(prefix=IPv4Prefix(f"{i + 1}.0.0.0/24"), adjacency=adj)
            for i in range(10)
        ]
        updater.enqueue_batch(requests)
        assert updater.queue_depth == 10
        assert updater.is_busy
        sim.run()
        assert updater.writes_applied == 10
        expected = updater.config.batch_duration(10)
        assert sim.now == pytest.approx(expected)

    def test_enqueue_batch_onto_busy_queue_does_not_reschedule(self, sim):
        fib = FlatFib()
        updater = FibUpdater(sim, fib)
        adj = Adjacency(mac=MAC_2, interface="core")
        updater.enqueue(IPv4Prefix("1.0.0.0/24"), adj)
        updater.enqueue_batch(
            [FibWriteRequest(prefix=IPv4Prefix("2.0.0.0/24"), adjacency=adj)]
        )
        sim.run()
        assert updater.writes_applied == 2
        assert sim.now == pytest.approx(updater.config.batch_duration(2))

    def test_empty_batch_is_noop(self, sim):
        updater = FibUpdater(sim, FlatFib())
        updater.enqueue_batch([])
        assert not updater.is_busy
        assert sim.run() == 0.0 and sim.events_executed == 0
