"""Tests for the BGP speaker, wired pairwise through an in-process fabric."""

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.bgp.speaker import BgpSpeaker, PeerConfig
from repro.net.addresses import IPv4Address, IPv4Prefix

PREFIX = IPv4Prefix("1.0.0.0/24")


class Fabric:
    """Delivers BGP messages between speakers with a small delay."""

    def __init__(self, sim):
        self.sim = sim
        self.speakers = {}

    def register(self, ip, speaker):
        self.speakers[ip] = speaker

    def transport_for(self, local_ip):
        def transport(peer_ip, message):
            def deliver():
                peer = self.speakers.get(peer_ip)
                if peer is not None:
                    peer.deliver(local_ip, message)

            self.sim.schedule(0.001, deliver)

        return transport


def _speaker(sim, fabric, ip, asn):
    address = IPv4Address(ip)
    speaker = BgpSpeaker(sim, asn=asn, router_id=address, transport=fabric.transport_for(address))
    fabric.register(address, speaker)
    return speaker


def _attrs(next_hop, as_path=(65001,)):
    return PathAttributes(next_hop=IPv4Address(next_hop), as_path=AsPath(as_path))


@pytest.fixture
def triangle(sim):
    """R1 peering with two providers (the paper's setup, control plane only)."""
    fabric = Fabric(sim)
    r1 = _speaker(sim, fabric, "10.0.0.1", 65000)
    r2 = _speaker(sim, fabric, "10.0.0.2", 65001)
    r3 = _speaker(sim, fabric, "10.0.0.3", 65002)
    r1.add_peer(PeerConfig(
        peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001,
        local_pref=200, advertise=False))
    r1.add_peer(PeerConfig(
        peer_ip=IPv4Address("10.0.0.3"), peer_asn=65002,
        local_pref=100, advertise=False))
    r2.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.1"), peer_asn=65000))
    r3.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.1"), peer_asn=65000))
    for speaker in (r1, r2, r3):
        speaker.start()
    sim.run(until=1.0)
    return r1, r2, r3


def test_sessions_establish(triangle, sim):
    r1, r2, r3 = triangle
    assert set(r1.established_peers()) == {IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3")}
    assert r2.established_peers() == [IPv4Address("10.0.0.1")]


def test_originated_route_reaches_peer_and_locrib(triangle, sim):
    r1, r2, r3 = triangle
    r2.originate(PREFIX, _attrs("10.0.0.2"))
    sim.run(until=2.0)
    assert r1.loc_rib.best(PREFIX) is not None
    assert r1.loc_rib.best(PREFIX).next_hop == IPv4Address("10.0.0.2")


def test_import_policy_prefers_primary(triangle, sim):
    r1, r2, r3 = triangle
    r2.originate(PREFIX, _attrs("10.0.0.2"))
    r3.originate(PREFIX, _attrs("10.0.0.3"))
    sim.run(until=2.0)
    ranking = r1.loc_rib.ranking(PREFIX)
    assert len(ranking) == 2
    assert ranking[0].source.peer_ip == IPv4Address("10.0.0.2")
    assert ranking[1].source.peer_ip == IPv4Address("10.0.0.3")
    assert [route.attributes.local_pref for route in ranking] == [200, 100]


def test_as_path_prepended_on_ebgp_export(triangle, sim):
    r1, r2, r3 = triangle
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(3356,)))
    sim.run(until=2.0)
    best = r1.loc_rib.best(PREFIX)
    assert best.attributes.as_path.asns[0] == 65001
    assert 3356 in best.attributes.as_path.asns


def test_withdraw_removes_route(triangle, sim):
    r1, r2, r3 = triangle
    r2.originate(PREFIX, _attrs("10.0.0.2"))
    sim.run(until=2.0)
    r2.withdraw_origin(PREFIX)
    sim.run(until=3.0)
    assert r1.loc_rib.best(PREFIX) is None


def test_peer_session_loss_flushes_routes(triangle, sim):
    r1, r2, r3 = triangle
    r2.originate(PREFIX, _attrs("10.0.0.2"))
    r3.originate(PREFIX, _attrs("10.0.0.3"))
    sim.run(until=2.0)
    r1.peer_connection_lost(IPv4Address("10.0.0.2"), "test failure")
    sim.run(until=2.1)
    best = r1.loc_rib.best(PREFIX)
    assert best is not None
    assert best.source.peer_ip == IPv4Address("10.0.0.3")


def test_rib_listener_sees_changes(triangle, sim):
    r1, r2, r3 = triangle
    calls = []
    r1.on_rib_change(lambda changes, peer: calls.append((changes, peer)))
    r2.originate(PREFIX, _attrs("10.0.0.2"))
    sim.run(until=2.0)
    # One call with the list of changes the (one-member) train caused.
    ((changes, peer),) = calls
    assert peer == IPv4Address("10.0.0.2")
    assert [(change.prefix, change.old_best) for change in changes] == [(PREFIX, None)]
    assert changes[0].new_best is r1.loc_rib.best(PREFIX)


def test_loop_prevention_drops_own_asn(triangle, sim):
    r1, r2, r3 = triangle
    # A route whose AS path already contains R1's ASN must be ignored.
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(65000, 3356)))
    sim.run(until=2.0)
    assert r1.loc_rib.best(PREFIX) is None


def test_looped_announcement_withdraws_the_route_it_replaces(triangle, sim):
    """An UPDATE replaces the peer's earlier route (RFC 4271 §9); when the
    replacement loops through us it is unusable, so the earlier route goes
    with it (RFC 7606 treat-as-withdraw)."""
    r1, r2, r3 = triangle
    r2.originate(PREFIX, _attrs("10.0.0.2"))
    r3.originate(PREFIX, _attrs("10.0.0.3"))
    sim.run(until=2.0)
    heard = []
    r1.on_rib_change(lambda change, peer: heard.append(peer))
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(65000, 3356)))
    sim.run(until=3.0)
    assert [route.source.peer_ip for route in r1.loc_rib.ranking(PREFIX)] == [
        IPv4Address("10.0.0.3")
    ]
    assert heard == [IPv4Address("10.0.0.2")]
    # A second looped path from the same peer has nothing left to replace.
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(65000, 174)))
    r3.originate(PREFIX, _attrs("10.0.0.3", as_path=(65000,)))
    sim.run(until=4.0)
    assert r1.loc_rib.best(PREFIX) is None
    assert heard == [IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3")]


@pytest.fixture
def fabric(sim):
    return Fabric(sim)


@pytest.fixture
def full_triangle(sim, fabric):
    """The triangle with every session exporting: R1 prefers R2 over R3 and
    re-advertises its best path to both; R2 and R3 re-advertise too."""
    speakers = {
        ip: _speaker(sim, fabric, ip, asn)
        for ip, asn in (("10.0.0.1", 65000), ("10.0.0.2", 65001), ("10.0.0.3", 65002))
    }
    r1, r2, r3 = speakers.values()
    r1.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001, local_pref=200))
    r1.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.3"), peer_asn=65002, local_pref=100))
    r2.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.1"), peer_asn=65000))
    r3.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.1"), peer_asn=65000))
    for speaker in (r1, r2, r3):
        speaker.start()
    sim.run(until=1.0)
    return r1, r2, r3


def test_best_moving_off_the_withdrawing_peer_is_announced_to_that_peer(full_triangle, sim):
    """R2's withdraw moves R1's best to R3's route: R2 is no longer where
    the best path was learned, so R2 must hear it (the skipped peer is the
    one the *new best* came from, not the one whose UPDATE triggered)."""
    r1, r2, r3 = full_triangle
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(174,)))
    r3.originate(PREFIX, _attrs("10.0.0.3", as_path=(3356,)))
    sim.run(until=2.0)
    assert r1.loc_rib.best(PREFIX).source.peer_ip == IPv4Address("10.0.0.2")
    assert r2.loc_rib.best(PREFIX) is None  # never told its own route back
    r2.withdraw_origin(PREFIX)
    sim.run(until=3.0)
    assert r1.loc_rib.best(PREFIX).source.peer_ip == IPv4Address("10.0.0.3")
    via_r1 = r2.loc_rib.best(PREFIX)
    assert via_r1 is not None and via_r1.source.peer_ip == IPv4Address("10.0.0.1")
    assert via_r1.attributes.as_path.asns == (65000, 65002, 3356)
    # ...and R3, now the source of the best path, had R2's route withdrawn.
    assert r3.loc_rib.best(PREFIX) is None


def test_best_moving_onto_the_announcing_peer_withdraws_what_it_was_told(full_triangle, sim):
    """The other order: R1 had advertised R3's route to R2; R2's better
    announcement makes R2 the source of the best path, so the stale route
    via R1 is withdrawn from it."""
    r1, r2, r3 = full_triangle
    r3.originate(PREFIX, _attrs("10.0.0.3", as_path=(3356,)))
    sim.run(until=2.0)
    assert r2.loc_rib.best(PREFIX).source.peer_ip == IPv4Address("10.0.0.1")
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(174,)))
    sim.run(until=3.0)
    assert r1.loc_rib.best(PREFIX).source.peer_ip == IPv4Address("10.0.0.2")
    assert r2.loc_rib.best(PREFIX) is None
    assert r3.loc_rib.best(PREFIX).attributes.as_path.asns == (65000, 65001, 174)


def _ranked_sources(speaker):
    return [route.source.peer_ip for route in speaker.loc_rib.ranking(PREFIX)]


def test_learning_a_prefix_it_originates_does_not_withdraw_the_origination(full_triangle, sim):
    """R2 originates a prefix it has already learned via R1.  R1's best
    moves onto R2, so R1 withdraws R3's route from R2: R2's learned copy is
    gone, but what R2 exports for the prefix is its origination, which
    must stay announced."""
    r1, r2, r3 = full_triangle
    r3.originate(PREFIX, _attrs("10.0.0.3", as_path=(3356,)))
    sim.run(until=2.0)
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(174,)))
    sim.run(until=30.0)
    assert _ranked_sources(r1) == [IPv4Address("10.0.0.2"), IPv4Address("10.0.0.3")]
    assert r1.loc_rib.best(PREFIX).attributes.as_path.asns == (65001, 174)


@pytest.fixture
def late_peer(fabric, sim):
    """R2 (AS 65001) learns the prefix from R4 (AS 65004) and originates it
    too; R5 (AS 65005) peers with R2 only and comes up after both."""
    r2, r4, r5 = (
        _speaker(sim, fabric, ip, asn)
        for ip, asn in (("10.0.0.2", 65001), ("10.0.0.4", 65004), ("10.0.0.5", 65005))
    )
    r2.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.4"), peer_asn=65004))
    r2.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.5"), peer_asn=65005))
    r4.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001))
    r5.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001))
    r2.start_peer(IPv4Address("10.0.0.4"))
    r4.start()
    sim.run(until=1.0)
    r4.originate(PREFIX, _attrs("10.0.0.4", as_path=(3356,)))
    sim.run(until=2.0)
    r2.originate(PREFIX, _attrs("10.0.0.2", as_path=(174,)))
    sim.run(until=3.0)
    r2.start_peer(IPv4Address("10.0.0.5"))
    r5.start()
    sim.run(until=4.0)
    assert _ranked_sources(r2) == [IPv4Address("10.0.0.4")]
    return r2, r5


def test_initial_table_transfer_announces_the_origination_not_the_learned_copy(late_peer):
    _r2, r5 = late_peer
    assert r5.loc_rib.best(PREFIX).attributes.as_path.asns == (65001, 174)


def test_withdrawing_an_origination_falls_back_to_the_learned_best(late_peer, sim):
    r2, r5 = late_peer
    r2.withdraw_origin(PREFIX)
    sim.run(until=5.0)
    assert r5.loc_rib.best(PREFIX).attributes.as_path.asns == (65001, 65004, 3356)


def test_direct_advertise_and_withdraw_route(triangle, sim):
    r1, r2, r3 = triangle
    sent = r2.advertise_route(IPv4Address("10.0.0.1"), PREFIX, _attrs("10.0.0.2"))
    assert sent is True
    # Duplicate advertisement is suppressed by the Adj-RIB-Out.
    assert r2.advertise_route(IPv4Address("10.0.0.1"), PREFIX, _attrs("10.0.0.2")) is False
    sim.run(until=2.0)
    assert r1.loc_rib.best(PREFIX) is not None
    assert r2.withdraw_route(IPv4Address("10.0.0.1"), PREFIX) is True
    sim.run(until=3.0)
    assert r1.loc_rib.best(PREFIX) is None


def test_auto_advertise_disabled_suppresses_propagation(sim):
    fabric = Fabric(sim)
    relay = _speaker(sim, fabric, "10.0.0.10", 64512)
    left = _speaker(sim, fabric, "10.0.0.2", 65001)
    right = _speaker(sim, fabric, "10.0.0.1", 65000)
    relay.auto_advertise = False
    relay.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001))
    relay.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.1"), peer_asn=65000))
    left.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.10"), peer_asn=64512))
    right.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.10"), peer_asn=64512))
    for speaker in (relay, left, right):
        speaker.start()
    sim.run(until=1.0)
    left.originate(PREFIX, _attrs("10.0.0.2"))
    sim.run(until=2.0)
    assert relay.loc_rib.best(PREFIX) is not None
    assert right.loc_rib.best(PREFIX) is None


def test_export_policy_deny_all_blocks_advertisement(sim):
    fabric = Fabric(sim)
    a = _speaker(sim, fabric, "10.0.0.2", 65001)
    b = _speaker(sim, fabric, "10.0.0.1", 65000)
    a.add_peer(PeerConfig(
        peer_ip=IPv4Address("10.0.0.1"), peer_asn=65000, advertise=False))
    b.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001))
    a.start()
    b.start()
    sim.run(until=1.0)
    a.originate(PREFIX, _attrs("10.0.0.2"))
    sim.run(until=2.0)
    assert b.loc_rib.best(PREFIX) is None


def test_duplicate_peer_rejected(sim):
    fabric = Fabric(sim)
    speaker = _speaker(sim, fabric, "10.0.0.1", 65000)
    speaker.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001))
    with pytest.raises(ValueError):
        speaker.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001))


def test_process_update_withdraw_of_unknown_prefix_is_none(triangle, sim):
    r1, _r2, _r3 = triangle
    result = r1.process_update(IPv4Address("10.0.0.2"), UpdateMessage.withdraw(PREFIX))
    assert result is None


def test_initial_table_transfer_on_late_session(sim):
    fabric = Fabric(sim)
    provider = _speaker(sim, fabric, "10.0.0.2", 65001)
    customer = _speaker(sim, fabric, "10.0.0.1", 65000)
    provider.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.1"), peer_asn=65000))
    customer.add_peer(PeerConfig(peer_ip=IPv4Address("10.0.0.2"), peer_asn=65001, advertise=False))
    # Originate before the session exists: the route must still be sent
    # during the initial table transfer once the session establishes.
    provider.originate(PREFIX, _attrs("10.0.0.2"))
    provider.start()
    customer.start()
    sim.run(until=2.0)
    # No local_pref configured for the peer: the attributes arrive as sent.
    assert customer.loc_rib.best(PREFIX).attributes == _attrs("10.0.0.2").prepended(65001)


def test_routes_of_one_session_share_one_route_source():
    """Provenance is per session, not per UPDATE: every route a speaker
    holds from one peer points at the same :class:`RouteSource` object."""
    from repro.scenarios.presets import figure4
    from repro.scenarios.testbed import build_scenario
    from repro.sim.engine import Simulator

    lab = build_scenario(Simulator(seed=7), figure4(num_prefixes=300))
    assert lab.bring_up(timeout=600)
    speakers = [router.bgp for router in lab.edge_routers + lab.providers]
    speakers += [controller.bgp for controller in lab.controllers]
    sources, sessions = set(), set()
    for index, speaker in enumerate(speakers):
        for prefix in speaker.loc_rib.prefixes():
            for route in speaker.loc_rib.ranking(prefix):
                sources.add(id(route.source))
                sessions.add((index, route.source.peer_ip))
    # The controller hears R2 and R3, R1 hears the controller.
    assert len(sessions) == 3
    assert len(sources) == len(sessions)
