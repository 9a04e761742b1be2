"""Tests for BGP path attributes."""

import pytest

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.net.addresses import IPv4Address


class TestAsPath:
    def test_empty_path(self):
        path = AsPath()
        assert path.length == 0
        assert path.asns == ()
        assert str(path) == ""

    def test_length_and_endpoints(self):
        path = AsPath((65001, 200, 300))
        assert path.length == 3
        assert str(path) == "65001 200 300"
        assert (path.asns[0], path.asns[-1]) == (65001, 300)

    def test_prepend_creates_new_path(self):
        path = AsPath((100,))
        longer = path.prepend(65000, count=2)
        assert longer.asns == (65000, 65000, 100)
        assert path.asns == (100,)

    def test_prepend_invalid_count(self):
        with pytest.raises(ValueError):
            AsPath((1,)).prepend(2, count=0)

    def test_loop_detection(self):
        path = AsPath((65001, 3356))
        assert path.contains(3356)
        assert not path.contains(65000)

    def test_invalid_asn_rejected(self):
        with pytest.raises(ValueError):
            AsPath((0,))
        with pytest.raises(ValueError):
            AsPath((2 ** 32,))

    def test_equality_and_hash(self):
        assert AsPath((1, 2)) == AsPath((1, 2))
        assert hash(AsPath((1, 2))) == hash(AsPath((1, 2)))
        assert AsPath((1, 2)) != AsPath((2, 1))


class TestPathAttributes:
    def _attrs(self):
        return PathAttributes(
            next_hop=IPv4Address("10.0.0.2"),
            as_path=AsPath((65001, 100)),
            origin=Origin.IGP,
            local_pref=100,
            med=5,
        )

    def test_with_next_hop_only_changes_next_hop(self):
        attrs = self._attrs()
        rewritten = attrs.with_next_hop(IPv4Address("10.0.0.200"))
        assert rewritten.next_hop == IPv4Address("10.0.0.200")
        assert rewritten.as_path == attrs.as_path
        assert rewritten.local_pref == attrs.local_pref
        assert attrs.next_hop == IPv4Address("10.0.0.2")

    def test_with_local_pref(self):
        assert self._attrs().with_local_pref(300).local_pref == 300

    def test_with_local_pref_rejects_negative(self):
        with pytest.raises(ValueError):
            self._attrs().with_local_pref(-1)

    def test_prepended(self):
        attrs = self._attrs().prepended(65000)
        assert attrs.as_path.asns[0] == 65000
        assert attrs.as_path.length == 3

    def test_every_copy_helper_keeps_the_other_four_fields(self):
        base = PathAttributes(
            next_hop=IPv4Address("10.0.0.2"),
            as_path=AsPath((65001, 100)),
            origin=Origin.EGP,
            local_pref=150,
            med=5,
        )
        fields = PathAttributes._fields
        assert fields == ("next_hop", "as_path", "origin", "local_pref", "med")
        copies = {
            "next_hop": base.with_next_hop(IPv4Address("10.0.0.9")),
            "local_pref": base.with_local_pref(300),
            "as_path": base.prepended(65000, 2),
        }
        for changed, copy in copies.items():
            assert type(copy) is PathAttributes
            for name in fields:
                same = getattr(copy, name) == getattr(base, name)
                assert same is (name != changed), (changed, name)
        assert copies["as_path"].as_path.asns == (65000, 65000, 65001, 100)

    def test_origin_ordering(self):
        assert Origin.IGP < Origin.EGP < Origin.INCOMPLETE

    def test_attributes_are_hashable(self):
        assert hash(self._attrs()) == hash(self._attrs())
