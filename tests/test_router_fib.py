"""Tests for the LPM table, flat FIB and hierarchical FIB."""

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.router.fib import Adjacency, FlatFib, HierarchicalFib, LpmTable

MAC_R2 = MacAddress("00:00:00:00:00:02")
MAC_R3 = MacAddress("00:00:00:00:00:03")
ADJ_R2 = Adjacency(mac=MAC_R2, interface="core", next_hop_ip=IPv4Address("10.0.0.2"))
ADJ_R3 = Adjacency(mac=MAC_R3, interface="core", next_hop_ip=IPv4Address("10.0.0.3"))


class TestLpmTable:
    def test_exact_and_lpm_lookup(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/8"), "coarse")
        table.insert(IPv4Prefix("10.1.0.0/16"), "fine")
        prefix, value = table.lookup(IPv4Address("10.1.2.3"))
        assert value == "fine"
        assert prefix == IPv4Prefix("10.1.0.0/16")
        prefix, value = table.lookup(IPv4Address("10.2.0.1"))
        assert value == "coarse"

    def test_lookup_miss(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.0/8"), "x")
        assert table.lookup(IPv4Address("11.0.0.1")) is None

    def test_default_route_matches_everything(self):
        table = LpmTable()
        table.insert(IPv4Prefix("0.0.0.0/0"), "default")
        assert table.lookup(IPv4Address("200.1.2.3"))[1] == "default"

    def test_insert_replace_and_remove(self):
        table = LpmTable()
        prefix = IPv4Prefix("10.0.0.0/24")
        assert table.insert(prefix, 1) is True
        assert table.insert(prefix, 2) is False
        assert table.exact(prefix) == 2
        assert len(table) == 1
        assert table.remove(prefix) is True
        assert table.remove(prefix) is False
        assert len(table) == 0

    def test_remove_of_missing_branch(self):
        table = LpmTable()
        assert table.remove(IPv4Prefix("10.0.0.0/24")) is False

    def test_host_route(self):
        table = LpmTable()
        table.insert(IPv4Prefix("10.0.0.5/32"), "host")
        table.insert(IPv4Prefix("10.0.0.0/24"), "net")
        assert table.lookup(IPv4Address("10.0.0.5"))[1] == "host"
        assert table.lookup(IPv4Address("10.0.0.6"))[1] == "net"

    def test_contains(self):
        table = LpmTable()
        prefix = IPv4Prefix("10.0.0.0/24")
        table.insert(prefix, 1)
        assert prefix in table
        assert IPv4Prefix("10.0.1.0/24") not in table

    def test_contains_is_a_key_test_not_a_value_test(self):
        table = LpmTable()
        prefix = IPv4Prefix("10.0.0.0/24")
        table.insert(prefix, None)
        assert len(table) == 1
        assert prefix in table
        assert table.remove(prefix) is True
        assert prefix not in table


class TestFlatFib:
    def test_write_and_lookup(self):
        fib = FlatFib()
        prefix = IPv4Prefix("1.0.0.0/24")
        fib.write(prefix, ADJ_R2, now=1.0)
        entry = fib.lookup(IPv4Address("1.0.0.55"))
        assert entry.adjacency == ADJ_R2
        assert entry.updated_at == 1.0
        assert fib.entry(prefix) is not None
        assert len(fib) == 1

    def test_overwrite_changes_adjacency(self):
        fib = FlatFib()
        prefix = IPv4Prefix("1.0.0.0/24")
        fib.write(prefix, ADJ_R2)
        fib.write(prefix, ADJ_R3, now=2.0)
        assert fib.lookup(IPv4Address("1.0.0.1")).adjacency == ADJ_R3
        assert len(fib) == 1

    def test_delete(self):
        fib = FlatFib()
        prefix = IPv4Prefix("1.0.0.0/24")
        fib.write(prefix, ADJ_R2)
        assert fib.delete(prefix) is True
        assert fib.delete(prefix) is False
        assert fib.lookup(IPv4Address("1.0.0.1")) is None

    def test_each_entry_is_independent(self):
        # The defining property of a flat FIB: changing one entry does not
        # affect others even if they share the same next hop.
        fib = FlatFib()
        fib.write(IPv4Prefix("1.0.0.0/24"), ADJ_R2)
        fib.write(IPv4Prefix("2.0.0.0/24"), ADJ_R2)
        fib.write(IPv4Prefix("1.0.0.0/24"), ADJ_R3)
        assert fib.lookup(IPv4Address("2.0.0.1")).adjacency == ADJ_R2


class TestHierarchicalFib:
    def test_repoint_converges_all_dependent_prefixes(self):
        fib = HierarchicalFib()
        pointer = fib.add_adjacency(ADJ_R2)
        for index in range(10):
            fib.write(IPv4Prefix(f"{index + 1}.0.0.0/24"), pointer)
        fib.repoint(pointer, ADJ_R3)
        for index in range(10):
            assert fib.lookup(IPv4Address(f"{index + 1}.0.0.1")).adjacency == ADJ_R3

    def test_unknown_pointer_rejected(self):
        import pytest

        fib = HierarchicalFib()
        with pytest.raises(KeyError):
            fib.write(IPv4Prefix("1.0.0.0/24"), 99)
        with pytest.raises(KeyError):
            fib.repoint(99, ADJ_R2)

    def test_entry_resolves_pointer(self):
        fib = HierarchicalFib()
        pointer = fib.add_adjacency(ADJ_R2)
        prefix = IPv4Prefix("1.0.0.0/24")
        fib.write(prefix, pointer, now=4.0)
        entry = fib.entry(prefix)
        assert entry.adjacency == ADJ_R2
        assert entry.updated_at == 4.0
        fib.repoint(pointer, ADJ_R3)
        assert fib.entry(prefix).adjacency == ADJ_R3

    def test_delete(self):
        fib = HierarchicalFib()
        pointer = fib.add_adjacency(ADJ_R2)
        prefix = IPv4Prefix("1.0.0.0/24")
        fib.write(prefix, pointer)
        assert fib.delete(prefix) is True
        assert fib.delete(prefix) is False
        assert fib.entry(prefix) is None

