"""Locked pre-rewrite semantics of the data-plane structures.

These tests were written against the original sorted-list flow table and
per-bit LPM trie *before* the indexed/path-compressed rewrites landed, so
the new implementations are verified against the exact legacy behavior:
equal-priority FIFO ordering (including the replace-moves-to-back and
modify-keeps-position subtleties), replace-at-capacity, and the LPM edge
cases (default route, host routes, overlapping prefixes,
delete-then-reinsert).
"""

import pytest

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram
from repro.openflow.flow_table import (
    Actions,
    FlowEntry,
    FlowMatch,
    FlowTable,
    FlowTableError,
)
from repro.router.fib import LpmTable

MAC_1 = MacAddress("00:00:00:00:00:01")
MAC_2 = MacAddress("00:00:00:00:00:02")
MAC_3 = MacAddress("00:00:00:00:00:03")


def _frame(dst_mac=MAC_2, ethertype=EtherType.IPV4):
    packet = IPv4Packet(
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("1.0.0.1"),
        protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1, dst_port=2),
    )
    return EthernetFrame(MAC_1, dst_mac, ethertype, packet)


class TestFlowTableFifoOrdering:
    """Equal-priority tie-breaking is install-order FIFO."""

    def test_equal_priority_first_installed_wins(self):
        table = FlowTable()
        first = FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=1), priority=100)
        second = FlowEntry(FlowMatch(in_port=5), Actions(output_port=2), priority=100)
        table.install(first)
        table.install(second)
        # A frame matching both resolves to the first-installed entry.
        assert table.lookup(_frame(), in_port=5).actions.output_port == 1

    def test_reinstall_moves_entry_to_back_of_priority_class(self):
        # Replacing an entry re-appends it: the surviving equal-priority
        # entries now win ties against the replacement.
        table = FlowTable()
        match_a = FlowMatch(eth_dst=MAC_2)
        match_b = FlowMatch(in_port=5)
        table.install(FlowEntry(match_a, Actions(output_port=1), priority=100))
        table.install(FlowEntry(match_b, Actions(output_port=2), priority=100))
        table.install(FlowEntry(match_a, Actions(output_port=3), priority=100))
        assert len(table) == 2
        assert table.lookup(_frame(), in_port=5).actions.output_port == 2

    def test_modify_keeps_fifo_position(self):
        # MODIFY swaps actions in place: the entry keeps winning ties.
        table = FlowTable()
        match_a = FlowMatch(eth_dst=MAC_2)
        match_b = FlowMatch(in_port=5)
        table.install(FlowEntry(match_a, Actions(output_port=1), priority=100))
        table.install(FlowEntry(match_b, Actions(output_port=2), priority=100))
        assert table.modify(match_a, 100, Actions(output_port=9)) is True
        assert table.lookup(_frame(), in_port=5).actions.output_port == 9

    def test_entries_listed_by_priority_then_install_order(self):
        table = FlowTable()
        low = FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=1), priority=10)
        high = FlowEntry(FlowMatch(eth_dst=MAC_3), Actions(output_port=2), priority=300)
        mid_a = FlowEntry(FlowMatch(in_port=1), Actions(output_port=3), priority=100)
        mid_b = FlowEntry(FlowMatch(in_port=2), Actions(output_port=4), priority=100)
        for entry in (low, mid_a, high, mid_b):
            table.install(entry)
        assert [e.actions.output_port for e in table.entries()] == [2, 3, 4, 1]

    def test_same_match_different_priorities_coexist(self):
        table = FlowTable()
        match = FlowMatch(eth_dst=MAC_2)
        table.install(FlowEntry(match, Actions(output_port=1), priority=10))
        table.install(FlowEntry(match, Actions(output_port=2), priority=20))
        assert len(table) == 2
        assert table.lookup(_frame(), in_port=1).actions.output_port == 2
        assert table.find(match, 10).actions.output_port == 1
        # remove() without a priority clears every priority level.
        assert table.remove(match) == 2
        assert len(table) == 0

    def test_remove_with_priority_only_removes_that_level(self):
        table = FlowTable()
        match = FlowMatch(eth_dst=MAC_2)
        table.install(FlowEntry(match, Actions(output_port=1), priority=10))
        table.install(FlowEntry(match, Actions(output_port=2), priority=20))
        assert table.remove(match, priority=20) == 1
        assert table.lookup(_frame(), in_port=1).actions.output_port == 1


class TestFlowTableCapacity:
    def test_replace_at_capacity_succeeds(self):
        # Replacing an existing (match, priority) never counts against the
        # capacity check: the table is full but the install must succeed.
        table = FlowTable(capacity=2)
        match = FlowMatch(eth_dst=MAC_2)
        table.install(FlowEntry(match, Actions(output_port=1), priority=100))
        table.install(FlowEntry(FlowMatch(eth_dst=MAC_3), Actions(output_port=2), priority=100))
        table.install(FlowEntry(match, Actions(output_port=9), priority=100))
        assert len(table) == 2
        assert table.find(match, 100).actions.output_port == 9

    def test_install_beyond_capacity_raises_and_leaves_table_intact(self):
        table = FlowTable(capacity=1)
        table.install(FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=1)))
        with pytest.raises(FlowTableError):
            table.install(FlowEntry(FlowMatch(eth_dst=MAC_3), Actions(output_port=2)))
        assert len(table) == 1
        assert table.lookup(_frame(), in_port=1).actions.output_port == 1

    def test_modify_of_missing_entry_does_not_consume_capacity(self):
        table = FlowTable(capacity=1)
        table.install(FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=1)))
        assert table.modify(FlowMatch(eth_dst=MAC_3), 100, Actions(output_port=2)) is False
        assert len(table) == 1

    def test_clear_empties_table(self):
        table = FlowTable()
        table.install(FlowEntry(FlowMatch(eth_dst=MAC_2), Actions(output_port=1)))
        table.clear()
        assert len(table) == 0
        assert table.lookup(_frame(), in_port=1) is None


class TestLpmTableEdgeCases:
    def test_default_route_is_fallback_not_override(self):
        table = LpmTable()
        table.insert(IPv4Prefix("0.0.0.0/0"), "default")
        table.insert(IPv4Prefix("10.0.0.0/8"), "ten")
        assert table.lookup(IPv4Address("10.1.2.3"))[1] == "ten"
        prefix, value = table.lookup(IPv4Address("192.168.0.1"))
        assert value == "default"
        assert prefix == IPv4Prefix("0.0.0.0/0")

    def test_host_route_beats_every_covering_prefix(self):
        table = LpmTable()
        table.insert(IPv4Prefix("0.0.0.0/0"), "default")
        table.insert(IPv4Prefix("10.0.0.0/8"), "eight")
        table.insert(IPv4Prefix("10.1.0.0/16"), "sixteen")
        table.insert(IPv4Prefix("10.1.1.1/32"), "host")
        assert table.lookup(IPv4Address("10.1.1.1"))[1] == "host"
        assert table.lookup(IPv4Address("10.1.1.2"))[1] == "sixteen"
        assert table.lookup(IPv4Address("10.2.0.1"))[1] == "eight"

    def test_overlapping_prefixes_report_their_own_network(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
        table.insert(IPv4Prefix("10.128.0.0/9"), "fine")
        prefix, value = table.lookup(IPv4Address("10.200.0.1"))
        assert (str(prefix), value) == ("10.128.0.0/9", "fine")
        prefix, value = table.lookup(IPv4Address("10.1.0.1"))
        assert (str(prefix), value) == ("10.0.0.0/8", "coarse")

    def test_removing_covering_prefix_keeps_specifics(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
        table.insert(IPv4Prefix("10.1.0.0/16"), "fine")
        assert table.remove(IPv4Prefix("10.0.0.0/8")) is True
        assert table.lookup(IPv4Address("10.1.2.3"))[1] == "fine"
        assert table.lookup(IPv4Address("10.2.0.1")) is None
        assert len(table) == 1

    def test_removing_specific_falls_back_to_covering(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
        table.insert(IPv4Prefix("10.1.0.0/16"), "fine")
        assert table.remove(IPv4Prefix("10.1.0.0/16")) is True
        assert table.lookup(IPv4Address("10.1.2.3"))[1] == "coarse"

    def test_delete_then_reinsert(self):
        table = LpmTable()
        prefix = IPv4Prefix("10.1.0.0/16")
        table.insert(prefix, "one")
        assert table.remove(prefix) is True
        assert table.lookup(IPv4Address("10.1.0.5")) is None
        assert table.insert(prefix, "two") is True  # it really was gone
        assert table.exact(prefix) == "two"
        assert len(table) == 1

    def test_delete_then_reinsert_under_live_sibling(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.1.0.0/16"), "left")
        table.insert(IPv4Prefix("10.2.0.0/16"), "right")
        assert table.remove(IPv4Prefix("10.1.0.0/16")) is True
        assert table.lookup(IPv4Address("10.2.0.1"))[1] == "right"
        assert table.insert(IPv4Prefix("10.1.0.0/16"), "back") is True
        assert table.lookup(IPv4Address("10.1.0.1"))[1] == "back"

    def test_zero_length_and_full_length_coexist(self):
        table = LpmTable()
        table.insert(IPv4Prefix("0.0.0.0/0"), "default")
        table.insert(IPv4Prefix("0.0.0.0/32"), "zero-host")
        assert table.lookup(IPv4Address("0.0.0.0"))[1] == "zero-host"
        assert table.lookup(IPv4Address("0.0.0.1"))[1] == "default"
        assert table.exact(IPv4Prefix("0.0.0.0/0")) == "default"

    def test_exact_does_not_match_covering_or_covered(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
        assert table.exact(IPv4Prefix("10.0.0.0/16")) is None
        assert table.exact(IPv4Prefix("0.0.0.0/0")) is None

    def test_sibling_prefixes_do_not_interfere(self):
        table = LpmTable()
        # /25 siblings inside the same /24: first differing bit is bit 24.
        table.insert(IPv4Prefix("10.0.0.0/25"), "low")
        table.insert(IPv4Prefix("10.0.0.128/25"), "high")
        assert table.lookup(IPv4Address("10.0.0.5"))[1] == "low"
        assert table.lookup(IPv4Address("10.0.0.200"))[1] == "high"
        assert table.remove(IPv4Prefix("10.0.0.0/25")) is True
        assert table.lookup(IPv4Address("10.0.0.5")) is None
        assert table.lookup(IPv4Address("10.0.0.200"))[1] == "high"
