"""Tests for the RIB structures."""

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.rib import AdjRibOut, LocRib, Route, RouteSource
from repro.net.addresses import IPv4Address, IPv4Prefix


PREFIX = IPv4Prefix("1.0.0.0/24")


def _route(peer="10.0.0.2", local_pref=100, as_len=1, prefix=PREFIX):
    peer_ip = IPv4Address(peer)
    return Route(
        prefix=prefix,
        attributes=PathAttributes(
            next_hop=peer_ip,
            as_path=AsPath(tuple(range(65001, 65001 + as_len))),
            local_pref=local_pref,
        ),
        source=RouteSource(peer_ip=peer_ip, peer_asn=65001, router_id=peer_ip),
    )


class TestAdjRibOut:
    def test_duplicate_announcement_suppressed(self):
        rib = AdjRibOut(IPv4Address("10.0.0.2"))
        attrs = _route().attributes
        assert rib.record_announce(PREFIX, attrs) is True
        assert rib.record_announce(PREFIX, attrs) is False
        assert rib.record_announce(PREFIX, attrs._replace(med=9)) is True

    def test_withdraw_only_when_advertised(self):
        rib = AdjRibOut(IPv4Address("10.0.0.2"))
        assert rib.record_withdraw(PREFIX) is False
        rib.record_announce(PREFIX, _route().attributes)
        assert rib.record_withdraw(PREFIX) is True
        assert rib.advertised(PREFIX) is None


class TestLocRib:
    def test_best_and_backup_ordering(self):
        rib = LocRib()
        rib.update(_route(peer="10.0.0.2", local_pref=200))
        rib.update(_route(peer="10.0.0.3", local_pref=100))
        assert rib.best(PREFIX).source.peer_ip == IPv4Address("10.0.0.2")
        assert rib.ranking(PREFIX)[1].source.peer_ip == IPv4Address("10.0.0.3")
        assert len(rib.ranking(PREFIX)) == 2

    def test_update_replaces_same_peer_route(self):
        rib = LocRib()
        rib.update(_route(local_pref=100))
        rib.update(_route(local_pref=300))
        assert len(rib.ranking(PREFIX)) == 1
        assert rib.best(PREFIX).attributes.local_pref == 300

    def test_change_reports_old_and_new_best(self):
        rib = LocRib()
        first = rib.update(_route(peer="10.0.0.2", local_pref=100))
        assert first.old_best is None and first.new_best is not None
        second = rib.update(_route(peer="10.0.0.3", local_pref=200))
        assert second.best_changed
        assert second.old_best.source.peer_ip == IPv4Address("10.0.0.2")
        assert second.new_best.source.peer_ip == IPv4Address("10.0.0.3")

    def test_withdraw_peer_removes_all_routes(self):
        rib = LocRib()
        other = IPv4Prefix("2.0.0.0/24")
        rib.update(_route(peer="10.0.0.2"))
        rib.update(_route(peer="10.0.0.2", prefix=other))
        rib.update(_route(peer="10.0.0.3", prefix=other))
        changes = rib.withdraw_peer(IPv4Address("10.0.0.2"))
        assert len(changes) == 2
        assert rib.best(PREFIX) is None
        assert rib.best(other).source.peer_ip == IPv4Address("10.0.0.3")

    def test_withdraw_last_route_empties_prefix(self):
        rib = LocRib()
        rib.update(_route(peer="10.0.0.2"))
        change = rib.withdraw(PREFIX, IPv4Address("10.0.0.2"))
        assert change.new_best is None
        assert len(rib) == 0

    def test_withdraw_unknown_peer_is_noop_change(self):
        rib = LocRib()
        rib.update(_route(peer="10.0.0.2"))
        change = rib.withdraw(PREFIX, IPv4Address("10.0.0.99"))
        assert not change.best_changed
        assert len(rib.ranking(PREFIX)) == 1


class TestCompactPeerRib:
    """The int-coded multi-peer RIB of the full-DFZ scale path."""

    def _rib(self):
        from repro.bgp.rib import CompactPeerRib

        rib = CompactPeerRib()
        self.p1 = IPv4Address("10.0.0.1")
        self.p2 = IPv4Address("10.0.0.2")
        self.p3 = IPv4Address("10.0.0.3")
        for peer in (self.p1, self.p2, self.p3):
            rib.add_peer(peer)
        return rib

    def test_registration_order_is_preference_order(self):
        rib = self._rib()
        for peer in (2, 0, 1):
            rib.load(7, peer)
        # Ranking follows registration (best-first), not announce order.
        assert list(rib.iter_withdraw_peer(1)) == [(7, (self.p1, self.p3))]

    def test_duplicate_announce_and_unknown_withdraw_are_noops(self):
        rib = self._rib()
        rib.load(7, 0)
        rib.load(7, 0)
        assert rib.route_count == 1
        assert list(rib.iter_withdraw_peer(1)) == []
        assert rib.route_count == 1

    def test_rankings_are_interned(self):
        rib = self._rib()
        for code in (7, 9):
            rib.load(code, 0)
            rib.load(code, 1)
        (_, first), (_, second) = rib.iter_withdraw_peer(1)
        assert first == (self.p1,) and first is second

    def test_iter_withdraw_peer_drains_in_sorted_order(self):
        rib = self._rib()
        for code in (9, 3, 5):
            rib.load(code, 0)
            rib.load(code, 1)
        rib.load(11, 1)  # not announced by peer 0: must survive
        drained = list(rib.iter_withdraw_peer(0))
        assert drained == [(3, (self.p2,)), (5, (self.p2,)), (9, (self.p2,))]
        assert len(rib) == 4  # 3,5,9 via p2 plus 11
        assert rib.route_count == 4
        assert list(rib.iter_withdraw_peer(0)) == []
        assert list(rib.iter_withdraw_peer(1)) == [(3, ()), (5, ()), (9, ()), (11, ())]

    def test_withdraw_last_peer_empties_prefix(self):
        rib = self._rib()
        rib.load(7, 1)
        assert list(rib.iter_withdraw_peer(1)) == [(7, ())]
        assert len(rib) == 0

    def test_agrees_with_loc_rib_rankings(self):
        """Cross-check against LocRib on a mixed announce and withdraw
        script, both keyed by the prefix itself: next-hop rankings must
        match."""
        from repro.bgp.rib import CompactPeerRib

        peers = [IPv4Address(f"10.0.0.{i}") for i in (1, 2, 3)]
        prefs = {peers[0]: 300, peers[1]: 200, peers[2]: 100}
        loc_rib = LocRib()
        compact = CompactPeerRib()
        for peer in peers:
            compact.add_peer(peer)
        prefixes = [IPv4Prefix(f"203.0.{i}.0/24") for i in range(8)]
        script = [
            (peer, prefix)
            for index, prefix in enumerate(prefixes)
            for peer in peers[: 1 + index % 3]
        ]
        for peer, prefix in script:
            loc_rib.update(_route(peer, prefs[peer], prefix=prefix))
            compact.load(prefix, peers.index(peer))
        loc_rib.withdraw_peer(peers[0])
        drained = dict(compact.iter_withdraw_peer(0))
        assert sorted(drained) == prefixes
        for prefix in prefixes:
            expected = tuple(
                route.next_hop for route in loc_rib.ranking(prefix)
            )
            assert drained[prefix] == expected
