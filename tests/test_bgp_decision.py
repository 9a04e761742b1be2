"""Tests for the BGP decision process."""

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.decision import rank_routes
from repro.bgp.rib import Route, RouteSource
from repro.net.addresses import IPv4Address, IPv4Prefix

PREFIX = IPv4Prefix("1.0.0.0/24")


def _route(
    peer="10.0.0.2",
    local_pref=100,
    as_len=1,
    origin=Origin.IGP,
    med=0,
    is_ebgp=True,
    router_id=None,
    neighbor_as=65001,
):
    peer_ip = IPv4Address(peer)
    return Route(
        prefix=PREFIX,
        attributes=PathAttributes(
            next_hop=peer_ip,
            as_path=AsPath(tuple([neighbor_as] + list(range(100, 100 + as_len - 1)))),
            origin=origin,
            local_pref=local_pref,
            med=med,
        ),
        source=RouteSource(
            peer_ip=peer_ip,
            peer_asn=neighbor_as,
            router_id=IPv4Address(router_id or peer),
            is_ebgp=is_ebgp,
        ),
    )


def test_highest_local_pref_wins():
    low = _route(peer="10.0.0.2", local_pref=100)
    high = _route(peer="10.0.0.3", local_pref=200)
    assert rank_routes([low, high])[0] == high


def test_shorter_as_path_wins_when_local_pref_ties():
    short = _route(peer="10.0.0.2", as_len=1)
    long = _route(peer="10.0.0.3", as_len=4)
    assert rank_routes([long, short])[0] == short


def test_lower_origin_wins():
    igp = _route(peer="10.0.0.2", origin=Origin.IGP)
    incomplete = _route(peer="10.0.0.3", origin=Origin.INCOMPLETE)
    assert rank_routes([incomplete, igp])[0] == igp


def test_lower_med_wins():
    cheap = _route(peer="10.0.0.2", med=1)
    expensive = _route(peer="10.0.0.3", med=9)
    assert rank_routes([expensive, cheap])[0] == cheap


def test_ebgp_preferred_over_ibgp():
    external = _route(peer="10.0.0.2", is_ebgp=True)
    internal = _route(peer="10.0.0.3", is_ebgp=False)
    assert rank_routes([internal, external])[0] == external


def test_lower_router_id_breaks_ties():
    a = _route(peer="10.0.0.2", router_id="1.1.1.1")
    b = _route(peer="10.0.0.3", router_id="2.2.2.2")
    assert rank_routes([b, a])[0] == a


def test_lower_peer_address_is_final_tiebreak():
    a = _route(peer="10.0.0.2", router_id="9.9.9.9")
    b = _route(peer="10.0.0.3", router_id="9.9.9.9")
    assert rank_routes([b, a])[0] == a


def test_rank_orders_full_ladder():
    best = _route(peer="10.0.0.2", local_pref=300)
    second = _route(peer="10.0.0.3", local_pref=200)
    third = _route(peer="10.0.0.4", local_pref=100)
    ranked = rank_routes([third, best, second])
    assert [route.source.peer_ip for route in ranked] == [
        IPv4Address("10.0.0.2"),
        IPv4Address("10.0.0.3"),
        IPv4Address("10.0.0.4"),
    ]


def test_local_pref_dominates_as_path():
    preferred = _route(peer="10.0.0.2", local_pref=200, as_len=5)
    shorter = _route(peer="10.0.0.3", local_pref=100, as_len=1)
    assert rank_routes([preferred, shorter])[0] == preferred


def test_rank_returns_new_list():
    routes = [_route(peer="10.0.0.3"), _route(peer="10.0.0.2")]
    ranked = rank_routes(routes)
    assert ranked is not routes
    assert len(ranked) == 2
