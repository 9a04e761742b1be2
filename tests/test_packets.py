"""Tests for frame and packet models."""

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.packets import (
    BgpTransport,
    EtherType,
    EthernetFrame,
    IpProtocol,
    IPv4Packet,
    UdpDatagram,
)


def _udp_packet():
    return IPv4Packet(
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("10.0.0.2"),
        protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1000, dst_port=9),
    )


def test_ttl_decrement_preserves_identity():
    packet = _udp_packet()
    forwarded = packet.decremented()
    assert forwarded.ttl == packet.ttl - 1
    assert forwarded.packet_id == packet.packet_id
    assert forwarded.dst == packet.dst


def test_packet_ids_are_unique():
    assert _udp_packet().packet_id != _udp_packet().packet_id


def test_with_dst_mac_rewrites_only_destination():
    frame = EthernetFrame(MacAddress(1), MacAddress(2), EtherType.IPV4, _udp_packet())
    rewritten = frame.with_dst_mac(MacAddress(9))
    assert rewritten.dst_mac == MacAddress(9)
    assert rewritten.src_mac == frame.src_mac
    assert rewritten.payload is frame.payload


def test_with_src_mac_rewrites_only_source():
    frame = EthernetFrame(MacAddress(1), MacAddress(2), EtherType.IPV4, _udp_packet())
    rewritten = frame.with_src_mac(MacAddress(7))
    assert rewritten.src_mac == MacAddress(7)
    assert rewritten.dst_mac == frame.dst_mac


def test_bgp_transport_wraps_message():
    transport = BgpTransport(
        src_ip=IPv4Address("10.0.0.1"),
        dst_ip=IPv4Address("10.0.0.2"),
        message={"kind": "open"},
    )
    assert transport.message == {"kind": "open"}
