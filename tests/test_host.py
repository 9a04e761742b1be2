"""The endpoint contract, held by every device kind built on ``Host``.

Router, supercharged controller, traffic source and traffic sink are one
:class:`repro.net.host.Host`; each test below runs against all four, wired
to a bare port that records what the device puts on the wire.
"""

import pytest

from repro.arp.client import MAX_RETRIES, RETRY_INTERVAL
from repro.arp.protocol import build_arp_reply, build_arp_request
from repro.core.controller import ControllerConfig, SuperchargedController
from repro.net.addresses import BROADCAST_MAC, IPv4Address, IPv4Prefix, MacAddress
from repro.net.host import Host
from repro.net.links import Link, Port
from repro.net.packets import ArpOp, EtherType, EthernetFrame
from repro.router.router import Router, RouterConfig
from repro.traffic.generator import TrafficSource, TrafficSourceConfig
from repro.traffic.monitor import TrafficSink

SUBNET = IPv4Prefix("10.0.0.0/24")
HOST_IP, HOST_MAC = IPv4Address("10.0.0.1"), MacAddress("00:00:00:00:00:01")
PEER_IP, PEER_MAC = IPv4Address("10.0.0.2"), MacAddress("00:00:00:00:00:02")
OTHER_IP, OTHER_MAC = IPv4Address("10.0.0.3"), MacAddress("00:00:00:00:00:03")


def _router(sim):
    router = Router(sim, "dev", RouterConfig(asn=65000, router_id=HOST_IP))
    router.add_interface("eth0", HOST_MAC, HOST_IP, SUBNET)
    return router


def _controller(sim):
    return SuperchargedController(sim, "dev", ControllerConfig(
        ip=HOST_IP, mac=HOST_MAC, subnet=SUBNET, asn=64512, router_id=HOST_IP))


def _source(sim):
    return TrafficSource(sim, "dev", TrafficSourceConfig(
        ip=HOST_IP, mac=HOST_MAC, subnet=SUBNET, gateway_ip=PEER_IP))


def _sink(sim):
    sink = TrafficSink(sim, "dev")
    sink.add_interface("eth0", HOST_MAC, HOST_IP, SUBNET)
    return sink


@pytest.fixture(params=[_router, _controller, _source, _sink], ids=lambda make: make.__name__[1:])
def wired(request, sim):
    """``(host, wire, heard, link)``: a device of each kind on a link whose
    far end is a bare port recording every frame the device sends."""
    host = request.param(sim)
    assert isinstance(host, Host)
    wire, heard = Port("wire", 0), []
    wire.set_frame_handler(lambda frame, port: heard.append(frame))
    link = Link(sim, wire, host.interfaces["eth0"].port, latency=1e-5)
    return host, wire, heard, link


def test_answers_arp_for_its_own_addresses_only_and_learns_the_sender(wired, sim):
    host, wire, heard, _link = wired
    wire.send(build_arp_request(PEER_MAC, PEER_IP, OTHER_IP))
    sim.run_for(0.01)
    assert heard == []
    assert host.arp_cache.lookup(PEER_IP, sim.now) == PEER_MAC
    wire.send(build_arp_request(OTHER_MAC, OTHER_IP, HOST_IP))
    sim.run_for(0.01)
    (reply,) = heard
    assert reply.payload.op is ArpOp.REPLY
    assert (reply.payload.sender_ip, reply.payload.sender_mac) == (HOST_IP, HOST_MAC)
    assert reply.dst_mac == OTHER_MAC
    assert host.has_address(HOST_IP) and not host.has_address(OTHER_IP)


def test_drops_a_unicast_frame_for_another_mac_before_looking_at_it(wired, sim):
    host, wire, heard, _link = wired
    request = build_arp_request(PEER_MAC, PEER_IP, HOST_IP)
    wire.send(EthernetFrame(PEER_MAC, OTHER_MAC, EtherType.ARP, request.payload))
    # Not even parsed: a payload that is no packet at all does no harm.
    wire.send(EthernetFrame(PEER_MAC, OTHER_MAC, EtherType.IPV4, object()))
    sim.run_for(0.01)
    assert heard == []
    assert host.arp_cache.lookup(PEER_IP, sim.now) is None
    port = host.interfaces["eth0"].port
    assert host.accepts(port, HOST_MAC) and host.accepts(port, BROADCAST_MAC)
    assert not host.accepts(port, OTHER_MAC)


@pytest.mark.parametrize("static", [False, True], ids=["cached", "static"])
def test_send_to_neighbor_sends_at_once_on_a_known_binding(wired, sim, static):
    host, _wire, heard, _link = wired
    if static:
        host.add_static_neighbor(PEER_IP, PEER_MAC)
    else:
        host.arp_cache.learn(PEER_IP, PEER_MAC, sim.now)
    assert host.send_to_neighbor(PEER_IP, EtherType.IPV4, "payload") is True
    sim.run_for(0.01)
    (frame,) = heard
    assert (frame.src_mac, frame.dst_mac, frame.payload) == (HOST_MAC, PEER_MAC, "payload")
    # No interface reaches an off-link address.
    assert host.send_to_neighbor(IPv4Address("192.0.2.1"), EtherType.IPV4, "x") is False


def test_send_to_neighbor_queues_behind_one_arp_request(wired, sim):
    host, wire, heard, _link = wired
    assert host.send_to_neighbor(PEER_IP, EtherType.IPV4, "first") is False
    assert host.send_to_neighbor(PEER_IP, EtherType.IPV4, "second") is False
    sim.run_for(0.01)
    (request,) = heard
    assert request.dst_mac == BROADCAST_MAC and request.payload.target_ip == PEER_IP
    wire.send(build_arp_reply(PEER_MAC, PEER_IP, HOST_MAC, HOST_IP))
    sim.run_for(0.01)
    assert [frame.payload for frame in heard[1:]] == ["first", "second"]
    assert all(frame.dst_mac == PEER_MAC for frame in heard[1:])


def test_send_to_neighbor_drops_after_max_retries(wired, sim):
    host, _wire, heard, _link = wired
    host.send_to_neighbor(PEER_IP, EtherType.IPV4, "lost")
    sim.run_for(RETRY_INTERVAL * (MAX_RETRIES + 2))
    assert len(heard) == MAX_RETRIES
    assert all(frame.ethertype is EtherType.ARP for frame in heard)
    # The queue is gone with the payload: a late answer sends nothing.
    host.arp_cache.learn(PEER_IP, PEER_MAC, sim.now)
    sim.run_for(1.0)
    assert len(heard) == MAX_RETRIES


def test_an_interface_that_is_down_sends_nothing(wired, sim):
    host, wire, heard, link = wired
    host.add_static_neighbor(PEER_IP, PEER_MAC)
    link.fail()
    assert host.send_to_neighbor(PEER_IP, EtherType.IPV4, "payload") is False
    assert host.send_to_neighbor(OTHER_IP, EtherType.IPV4, "queued") is False
    sim.run_for(5.0)
    assert heard == []
    assert host.interfaces["eth0"].port.frames_sent == 0
