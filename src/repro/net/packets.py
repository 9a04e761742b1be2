"""Frame and packet models.

Packets are plain immutable values: an :class:`EthernetFrame` carries
one payload object — an :class:`ArpPacket`, an :class:`IPv4Packet` or a
:class:`BgpTransport` message — and an :class:`IPv4Packet` in turn carries
a :class:`UdpDatagram` or a :class:`BfdControl` packet.  There are no
wire sizes and no byte-level serialisation: the experiments measure time
and reachability, never load in bytes.

Every packet is a ``NamedTuple`` (building one is a tuple build, and no
dataclass code is generated at import); receivers tell payloads apart by
``ethertype`` / ``protocol``, never by equality.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, NamedTuple, Optional

from repro.net.addresses import IPv4Address, MacAddress

_packet_ids = itertools.count(1)


class EtherType(enum.IntEnum):
    """Ethernet payload type identifiers (the subset we model)."""

    IPV4 = 0x0800
    ARP = 0x0806
    BGP_TRANSPORT = 0xB617  # abstracted BGP-over-TCP transport


class IpProtocol(enum.IntEnum):
    """IPv4 protocol numbers (the subset we model)."""

    UDP = 17
    BFD = 253  # experimental value; real BFD rides UDP but a dedicated
    # protocol number keeps the simulated demux trivial and explicit.


class ArpOp(enum.IntEnum):
    """ARP operation codes."""

    REQUEST = 1
    REPLY = 2


class ArpPacket(NamedTuple):
    """ARP request or reply."""

    op: ArpOp
    sender_mac: MacAddress
    sender_ip: IPv4Address
    target_mac: MacAddress
    target_ip: IPv4Address


class UdpDatagram(NamedTuple):
    """UDP datagram carrying opaque test-traffic payload."""

    src_port: int
    dst_port: int
    payload: Any = None


class BfdControl(NamedTuple):
    """Simplified BFD control packet (RFC 5880 asynchronous mode)."""

    my_discriminator: int
    your_discriminator: int
    state: str
    desired_min_tx_interval: float
    required_min_rx_interval: float
    detect_multiplier: int


class BgpTransport(NamedTuple):
    """Abstracted BGP transport segment.

    Real BGP runs over TCP.  Simulating a byte-accurate TCP stack adds
    nothing to the experiments, so BGP messages are carried as opaque
    objects in a dedicated Ethernet payload type, preserving ordering and
    per-hop latency.
    """

    src_ip: IPv4Address
    dst_ip: IPv4Address
    message: Any


class _IPv4Header(NamedTuple):
    """The fields of :class:`IPv4Packet` (whose ``__new__`` draws the id)."""

    src: IPv4Address
    dst: IPv4Address
    protocol: IpProtocol
    payload: Any
    ttl: int = 64
    packet_id: int = 0


class IPv4Packet(_IPv4Header):
    """IPv4 packet carrying a UDP datagram or a BFD control packet; one
    built without a ``packet_id`` draws the next id."""

    __slots__ = ()

    def __new__(
        cls,
        src: IPv4Address,
        dst: IPv4Address,
        protocol: IpProtocol,
        payload: Any,
        ttl: int = 64,
        packet_id: Optional[int] = None,
    ) -> "IPv4Packet":
        if packet_id is None:
            packet_id = next(_packet_ids)
        return tuple.__new__(cls, (src, dst, protocol, payload, ttl, packet_id))

    def decremented(self) -> "IPv4Packet":
        """Copy of the packet with TTL reduced by one (same packet id)."""
        return self._replace(ttl=self.ttl - 1)


class EthernetFrame(NamedTuple):
    """Ethernet II frame."""

    src_mac: MacAddress
    dst_mac: MacAddress
    ethertype: EtherType
    payload: Any

    def with_dst_mac(self, dst_mac: MacAddress) -> "EthernetFrame":
        """Copy of the frame with a rewritten destination MAC (switch action)."""
        return EthernetFrame(self.src_mac, dst_mac, self.ethertype, self.payload)

    def with_src_mac(self, src_mac: MacAddress) -> "EthernetFrame":
        """Copy of the frame with a rewritten source MAC."""
        return EthernetFrame(src_mac, self.dst_mac, self.ethertype, self.payload)
