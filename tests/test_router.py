"""Tests for the router node: data plane, ARP, RIB→FIB plumbing, failures.

The fixtures build a miniature two-router topology directly (without the
full evaluation lab): host — R1 — R2 — host, joined by point-to-point links.
"""

import random

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.speaker import PeerConfig
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.host import Host
from repro.net.links import Link
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram
from repro.router.fib_updater import FibUpdaterConfig
from repro.router.router import Router, RouterConfig, StaticRoute

LEFT_SUBNET = IPv4Prefix("192.168.1.0/24")
CORE_SUBNET = IPv4Prefix("10.0.0.0/24")
RIGHT_SUBNET = IPv4Prefix("192.168.2.0/24")

R1_LEFT_IP = IPv4Address("192.168.1.1")
R1_CORE_IP = IPv4Address("10.0.0.1")
R2_CORE_IP = IPv4Address("10.0.0.2")
R2_RIGHT_IP = IPv4Address("192.168.2.1")
HOST_LEFT_IP = IPv4Address("192.168.1.2")
HOST_RIGHT_IP = IPv4Address("192.168.2.2")

R1_LEFT_MAC = MacAddress("00:00:00:00:01:01")
R1_CORE_MAC = MacAddress("00:00:00:00:00:01")
R2_CORE_MAC = MacAddress("00:00:00:00:00:02")
R2_RIGHT_MAC = MacAddress("00:00:00:00:02:01")
HOST_LEFT_MAC = MacAddress("00:00:00:00:01:02")
HOST_RIGHT_MAC = MacAddress("00:00:00:00:02:02")

REMOTE_PREFIX = IPv4Prefix("8.8.8.0/24")


class CapturingHost(Host):
    """A real host that keeps every non-ARP frame it is sent."""

    def __init__(self, sim, name, mac, ip, subnet):
        super().__init__(sim, name)
        self.mac = mac
        self.ip = ip
        self.port = self.add_interface("eth0", mac, ip, subnet).port
        self.received = []

    def _handle_frame(self, frame, port):
        super()._handle_frame(frame, port)
        if frame.ethertype is not EtherType.ARP:
            self.received.append(frame)

    def send_udp(self, gateway_mac, dst_ip):
        packet = IPv4Packet(
            src=self.ip, dst=dst_ip, protocol=IpProtocol.UDP,
            payload=UdpDatagram(src_port=1234, dst_port=9),
        )
        self.port.send(EthernetFrame(self.mac, gateway_mac, EtherType.IPV4, packet))


@pytest.fixture
def duo(sim):
    """host_left — R1 — R2 — host_right with BGP+BFD between R1 and R2."""
    fast_fib = FibUpdaterConfig(first_entry_latency=0.01, per_entry_latency=0.001)
    r1 = Router(sim, "R1", RouterConfig(
        asn=65000, router_id=R1_CORE_IP, fib_updater=fast_fib, bfd_interval=0.05))
    r2 = Router(sim, "R2", RouterConfig(
        asn=65001, router_id=R2_CORE_IP, fib_updater=fast_fib, bfd_interval=0.05))
    r1.add_interface("left", R1_LEFT_MAC, R1_LEFT_IP, LEFT_SUBNET)
    r1.add_interface("core", R1_CORE_MAC, R1_CORE_IP, CORE_SUBNET)
    r2.add_interface("core", R2_CORE_MAC, R2_CORE_IP, CORE_SUBNET)
    r2.add_interface("right", R2_RIGHT_MAC, R2_RIGHT_IP, RIGHT_SUBNET)
    host_left = CapturingHost(sim, "hl", HOST_LEFT_MAC, HOST_LEFT_IP, LEFT_SUBNET)
    host_right = CapturingHost(sim, "hr", HOST_RIGHT_MAC, HOST_RIGHT_IP, RIGHT_SUBNET)
    links = {
        "left": Link(sim, host_left.port, r1.interfaces["left"].port, latency=1e-5),
        "core": Link(sim, r1.interfaces["core"].port, r2.interfaces["core"].port, latency=1e-5),
        "right": Link(sim, r2.interfaces["right"].port, host_right.port, latency=1e-5),
    }
    r1.add_bgp_peer(PeerConfig(
        peer_ip=R2_CORE_IP, peer_asn=65001,
        local_pref=200, advertise=False))
    r2.add_bgp_peer(PeerConfig(peer_ip=R1_CORE_IP, peer_asn=65000))
    r1.add_bfd_peer(R2_CORE_IP)
    r2.add_bfd_peer(R1_CORE_IP)
    r2.add_static_route(StaticRoute(IPv4Prefix("0.0.0.0/0"), HOST_RIGHT_IP))
    r1.start()
    r2.start()
    sim.run(until=2.0)
    return r1, r2, host_left, host_right, links


def test_bgp_session_establishes_over_the_wire(duo, sim):
    r1, r2, *_ = duo
    assert R2_CORE_IP in r1.bgp.established_peers()
    assert R1_CORE_IP in r2.bgp.established_peers()


def test_bfd_comes_up_over_the_wire(duo, sim):
    r1, r2, *_ = duo
    assert r1.bfd.session(R2_CORE_IP).is_up
    assert r2.bfd.session(R1_CORE_IP).is_up


def test_learned_route_installed_in_fib_with_resolved_adjacency(duo, sim):
    r1, r2, *_ = duo
    r2.bgp.originate(REMOTE_PREFIX, PathAttributes(next_hop=R2_CORE_IP, as_path=AsPath((3356,))))
    sim.run_for(2.0)
    entry = r1.fib.lookup(IPv4Address("8.8.8.8"))
    assert entry is not None
    assert entry.adjacency.mac == R2_CORE_MAC
    assert entry.adjacency.interface == "core"


def test_static_route_forwards_to_connected_host(duo, sim):
    _r1, r2, _hl, host_right, _links = duo
    entry = r2.fib.lookup(IPv4Address("200.1.2.3"))
    assert entry is not None
    assert entry.adjacency.mac == HOST_RIGHT_MAC


def test_end_to_end_forwarding(duo, sim):
    r1, r2, host_left, host_right, _links = duo
    r2.bgp.originate(REMOTE_PREFIX, PathAttributes(next_hop=R2_CORE_IP, as_path=AsPath((3356,))))
    sim.run_for(2.0)
    host_left.send_udp(R1_LEFT_MAC, IPv4Address("8.8.8.8"))
    sim.run_for(0.5)
    assert len(host_right.received) == 1
    delivered = host_right.received[0].payload
    assert delivered.dst == IPv4Address("8.8.8.8")
    assert delivered.ttl == 62  # decremented once by each of the two routers
    assert r1.packets_forwarded >= 1


def test_packet_to_unknown_destination_dropped(duo, sim):
    r1, _r2, host_left, host_right, _links = duo
    host_left.send_udp(R1_LEFT_MAC, IPv4Address("99.99.99.99"))
    sim.run_for(0.5)
    assert host_right.received == []
    assert r1.packets_dropped_no_route >= 1


def test_forwarding_decision_reports_none_without_route(duo):
    r1, *_ = duo
    assert r1.forwarding_decision(IPv4Address("99.99.99.99")) is None


def test_forwarding_decision_for_connected_destination(duo, sim):
    r1, _r2, host_left, *_ = duo
    # Force resolution by sending traffic towards the host once.
    r1.send_to_neighbor(HOST_LEFT_IP, EtherType.IPV4, IPv4Packet(
        src=R1_LEFT_IP, dst=HOST_LEFT_IP, protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1, dst_port=2)))
    sim.run_for(1.0)
    decision = r1.forwarding_decision(HOST_LEFT_IP)
    assert decision is not None
    interface, mac = decision
    assert interface.name == "left"
    assert mac == HOST_LEFT_MAC


def test_bfd_down_tears_bgp_and_reconverges_fib(duo, sim):
    r1, r2, _hl, _hr, links = duo
    r2.bgp.originate(REMOTE_PREFIX, PathAttributes(next_hop=R2_CORE_IP, as_path=AsPath((3356,))))
    sim.run_for(2.0)
    assert r1.fib.lookup(IPv4Address("8.8.8.8")) is not None
    links["core"].fail()
    sim.run_for(2.0)
    assert R2_CORE_IP not in r1.bgp.established_peers()
    assert r1.fib.lookup(IPv4Address("8.8.8.8")) is None


def test_ttl_expiry_drops_packet(duo, sim):
    r1, r2, host_left, host_right, _links = duo
    r2.bgp.originate(REMOTE_PREFIX, PathAttributes(next_hop=R2_CORE_IP, as_path=AsPath((3356,))))
    sim.run_for(2.0)
    packet = IPv4Packet(
        src=HOST_LEFT_IP, dst=IPv4Address("8.8.8.8"), protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1, dst_port=2), ttl=1)
    host_left.port.send(EthernetFrame(HOST_LEFT_MAC, R1_LEFT_MAC, EtherType.IPV4, packet))
    sim.run_for(0.5)
    assert host_right.received == []


def test_router_answers_arp_for_its_interfaces(duo, sim):
    r1, _r2, host_left, *_ = duo
    from repro.arp.protocol import build_arp_request

    host_left.port.send(build_arp_request(HOST_LEFT_MAC, HOST_LEFT_IP, R1_LEFT_IP))
    sim.run_for(0.1)
    assert r1.arp_cache.lookup(HOST_LEFT_IP, sim.now) == HOST_LEFT_MAC


def test_duplicate_interface_name_rejected(sim):
    router = Router(sim, "X", RouterConfig(asn=1, router_id=IPv4Address("1.1.1.1")))
    router.add_interface("core", R1_CORE_MAC, R1_CORE_IP, CORE_SUBNET)
    with pytest.raises(ValueError):
        router.add_interface("core", R2_CORE_MAC, R2_CORE_IP, CORE_SUBNET)


def test_blackhole_query_is_exact_per_prefix(sim):
    router = Router(sim, "X", RouterConfig(asn=1, router_id=IPv4Address("1.1.1.1")))
    prefixes = [IPv4Prefix(f"10.{octet}.0.0/16") for octet in (9, 1, 200, 42, 7)]
    for prefix in prefixes:
        router.add_blackhole(prefix)
    router.clear_blackhole(prefixes[0])
    assert router.is_blackholed(IPv4Address("10.1.5.1"))
    assert not router.is_blackholed(IPv4Address("10.9.5.1"))
    # The prefix-keyed query is exact: a covered /24 is not "the" blackhole.
    assert router.blackholes_prefix(prefixes[1])
    assert not router.blackholes_prefix(prefixes[0])
    assert not router.blackholes_prefix(IPv4Prefix("10.1.5.0/24"))


def _blackholing_router(sim):
    return Router(sim, "X", RouterConfig(asn=1, router_id=IPv4Address("1.1.1.1")))


def test_blackhole_probe_agrees_with_testing_every_prefix(sim):
    """Seeded blackholes of mixed lengths, some added twice, some cleared
    (and cleared twice): the per-length probe answers exactly what testing
    each live prefix answers, for addresses inside them and at random."""
    rng = random.Random(2015)
    router = _blackholing_router(sim)
    prefixes = [
        IPv4Prefix(IPv4Address(rng.getrandbits(32)), rng.choice((8, 13, 16, 21, 24, 27, 32)))
        for _ in range(300)
    ]
    live = set()
    for prefix in prefixes + prefixes[::7]:
        router.add_blackhole(prefix)
        live.add(prefix)
    for prefix in prefixes[::3] + prefixes[::6]:
        router.clear_blackhole(prefix)
        live.discard(prefix)
    inside = [
        IPv4Address(prefix.network | rng.getrandbits(32 - prefix.length)) for prefix in prefixes
    ]
    destinations = inside + [IPv4Address(rng.getrandbits(32)) for _ in range(2000)]
    answers = [router.is_blackholed(destination) for destination in destinations]
    assert answers == [any(p.contains(d) for p in live) for d in destinations]
    assert True in answers and False in answers
    for prefix in prefixes:
        router.clear_blackhole(prefix)
    assert not any(router.is_blackholed(destination) for destination in destinations)


class _CountingSet(set):
    probes = 0

    def __contains__(self, item):
        _CountingSet.probes += 1
        return set.__contains__(self, item)


def test_blackhole_probe_work_does_not_grow_with_the_blackhole_count(sim, monkeypatch):
    """Counted, not timed: per queried packet no ``IPv4Prefix.contains``
    call and one set probe per blackholed mask length (at most 33),
    whether 10 or 5,000 prefixes are blackholed, and none once every
    blackhole (each added twice) is cleared."""
    contains = IPv4Prefix.contains
    calls = []
    monkeypatch.setattr(
        IPv4Prefix, "contains", lambda self, item: calls.append(self) or contains(self, item)
    )
    lengths = (16, 20, 24)
    destinations = [IPv4Address(f"192.0.{i}.1") for i in range(50)]
    work = {}
    for count in (10, 5_000):
        router = _blackholing_router(sim)
        router._blackholes = _CountingSet()
        prefixes = [
            IPv4Prefix(IPv4Address((10 << 24) + (i << 8)), lengths[i % 3]) for i in range(count)
        ]
        for prefix in prefixes + prefixes:
            router.add_blackhole(prefix)
        _CountingSet.probes, calls[:] = 0, []
        assert not any(router.is_blackholed(destination) for destination in destinations)
        work[count] = (_CountingSet.probes / len(destinations), len(calls))
        for prefix in prefixes:
            router.clear_blackhole(prefix)
        _CountingSet.probes = 0
        assert not any(router.is_blackholed(destination) for destination in destinations)
        assert _CountingSet.probes == 0
    assert work[10] == work[5_000] == (len(lengths), 0)


def test_bfd_disabled_router_rejects_bfd_peer(sim):
    router = Router(sim, "X", RouterConfig(asn=1, router_id=IPv4Address("1.1.1.1")))
    with pytest.raises(RuntimeError):
        router.add_bfd_peer(R2_CORE_IP)


class TestHierarchicalRouter:
    def test_repoint_on_bfd_failure(self, sim):
        """A PIC router converges by repointing, without touching prefixes."""
        fast_fib = FibUpdaterConfig(first_entry_latency=0.01, per_entry_latency=0.001)
        r1 = Router(sim, "R1", RouterConfig(
            asn=65000, router_id=R1_CORE_IP, fib_updater=fast_fib,
            bfd_interval=0.05, hierarchical_fib=True))
        r2 = Router(sim, "R2", RouterConfig(
            asn=65001, router_id=R2_CORE_IP, fib_updater=fast_fib, bfd_interval=0.05))
        r3_ip = IPv4Address("10.0.0.3")
        r3_mac = MacAddress("00:00:00:00:00:03")
        r3 = Router(sim, "R3", RouterConfig(
            asn=65002, router_id=r3_ip, fib_updater=fast_fib, bfd_interval=0.05))
        r1.add_interface("core", R1_CORE_MAC, R1_CORE_IP, CORE_SUBNET)
        r2.add_interface("core", R2_CORE_MAC, R2_CORE_IP, CORE_SUBNET)
        r3.add_interface("core", r3_mac, r3_ip, CORE_SUBNET)
        # A shared-medium core is emulated with a learning-free hub: wire
        # R1-R2 and R1-R3 directly (no switch needed for this test).
        hub_r2 = Link(sim, r1.interfaces["core"].port, r2.interfaces["core"].port, latency=1e-5)
        # R3 cannot share the same port; use a second interface on R1.
        r1.add_interface("core2", MacAddress("00:00:00:00:00:11"),
                         IPv4Address("10.0.1.1"), IPv4Prefix("10.0.1.0/24"))
        r3.interfaces["core"].ip = IPv4Address("10.0.1.3")
        r3.interfaces["core"].subnet = IPv4Prefix("10.0.1.0/24")
        Link(sim, r1.interfaces["core2"].port, r3.interfaces["core"].port, latency=1e-5)
        r1.add_bgp_peer(PeerConfig(peer_ip=R2_CORE_IP, peer_asn=65001,
                                   local_pref=200, advertise=False))
        r1.add_bgp_peer(PeerConfig(peer_ip=IPv4Address("10.0.1.3"), peer_asn=65002,
                                   local_pref=100, advertise=False))
        r2.add_bgp_peer(PeerConfig(peer_ip=R1_CORE_IP, peer_asn=65000))
        r3.add_bgp_peer(PeerConfig(peer_ip=IPv4Address("10.0.1.1"), peer_asn=65000))
        r1.add_bfd_peer(R2_CORE_IP)
        r2.add_bfd_peer(R1_CORE_IP)
        for router in (r1, r2, r3):
            router.start()
        sim.run(until=2.0)
        attrs_r2 = PathAttributes(next_hop=R2_CORE_IP, as_path=AsPath((3356,)))
        attrs_r3 = PathAttributes(next_hop=IPv4Address("10.0.1.3"), as_path=AsPath((1299,)))
        r2.bgp.originate(REMOTE_PREFIX, attrs_r2)
        r3.bgp.originate(REMOTE_PREFIX, attrs_r3)
        sim.run_for(3.0)
        before = r1.fib.lookup(IPv4Address("8.8.8.8"))
        assert before is not None and before.adjacency.mac == R2_CORE_MAC
        hub_r2.fail()
        sim.run_for(1.0)
        after = r1.fib.lookup(IPv4Address("8.8.8.8"))
        assert after is not None
        assert after.adjacency.mac != R2_CORE_MAC
