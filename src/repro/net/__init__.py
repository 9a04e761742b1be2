"""Network substrate: addresses, frames, ports, links and interfaces.

This package models just enough of Ethernet/IPv4 to reproduce the paper's
data plane: Ethernet frames carrying ARP, IPv4/UDP test traffic, BFD
control packets and (abstracted) BGP transport messages, plus point-to-point
links with configurable propagation latency.  The endpoint built from
them, :class:`repro.net.host.Host`, is imported from its module (it needs
:mod:`repro.arp`, which imports this package's addresses).
"""

from repro.net.addresses import (
    MacAddress,
    IPv4Address,
    IPv4Prefix,
    AddressError,
    BROADCAST_MAC,
)
from repro.net.packets import (
    ArpOp,
    ArpPacket,
    BfdControl,
    BgpTransport,
    EtherType,
    EthernetFrame,
    IpProtocol,
    IPv4Packet,
    UdpDatagram,
)
from repro.net.links import Link, LinkState, Port, PortError
from repro.net.interfaces import Interface

__all__ = [
    "MacAddress",
    "IPv4Address",
    "IPv4Prefix",
    "AddressError",
    "BROADCAST_MAC",
    "ArpOp",
    "ArpPacket",
    "BfdControl",
    "BgpTransport",
    "EtherType",
    "EthernetFrame",
    "IpProtocol",
    "IPv4Packet",
    "UdpDatagram",
    "Link",
    "LinkState",
    "Port",
    "PortError",
    "Interface",
]
