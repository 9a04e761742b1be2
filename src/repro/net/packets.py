"""Frame and packet models.

Packets are plain immutable dataclasses: an :class:`EthernetFrame` carries
one payload object — an :class:`ArpPacket`, an :class:`IPv4Packet` or a
:class:`BgpTransport` message — and an :class:`IPv4Packet` in turn carries
a :class:`UdpDatagram` or a :class:`BfdControl` packet.  Sizes are tracked
so links and traffic generators can account for load in bytes, but no
byte-level serialisation is performed (it is never needed in simulation).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.addresses import IPv4Address, MacAddress

_packet_ids = itertools.count(1)

#: Nominal wire size of one BGP message inside its transport segment.
BGP_MESSAGE_BYTES = 64


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


@dataclass(frozen=True)
class ArpPacket:
    """ARP request or reply."""

    op: ArpOp
    sender_mac: MacAddress
    sender_ip: IPv4Address
    target_mac: MacAddress
    target_ip: IPv4Address

    @property
    def size_bytes(self) -> int:
        """Wire size of an Ethernet ARP payload."""
        return 28


@dataclass(frozen=True)
class UdpDatagram:
    """UDP datagram carrying opaque test-traffic payload."""

    src_port: int
    dst_port: int
    payload: Any = None
    payload_bytes: int = 18  # fills a 64-byte minimum Ethernet frame

    @property
    def size_bytes(self) -> int:
        """UDP header plus payload."""
        return 8 + self.payload_bytes


@dataclass(frozen=True)
class BfdControl:
    """Simplified BFD control packet (RFC 5880 asynchronous mode)."""

    my_discriminator: int
    your_discriminator: int
    state: str
    desired_min_tx_interval: float
    required_min_rx_interval: float
    detect_multiplier: int

    @property
    def size_bytes(self) -> int:
        """Wire size of a BFD control packet."""
        return 24


@dataclass(frozen=True)
class BgpTransport:
    """Abstracted BGP transport segment.

    Real BGP runs over TCP.  Simulating a byte-accurate TCP stack adds
    nothing to the experiments, so BGP messages are carried as opaque
    objects in a dedicated Ethernet payload type, preserving ordering and
    per-hop latency.
    """

    src_ip: IPv4Address
    dst_ip: IPv4Address
    message: Any

    @property
    def size_bytes(self) -> int:
        """Segment size: the message's own size when it has one (an UPDATE
        train weighs the sum of its members), else one nominal message."""
        return getattr(self.message, "size_bytes", BGP_MESSAGE_BYTES)


@dataclass(frozen=True)
class IPv4Packet:
    """IPv4 packet carrying a UDP datagram or a BFD control packet."""

    src: IPv4Address
    dst: IPv4Address
    protocol: IpProtocol
    payload: Any
    ttl: int = 64
    packet_id: int = field(default_factory=lambda: next(_packet_ids))

    @property
    def size_bytes(self) -> int:
        """IPv4 header plus payload size."""
        inner = getattr(self.payload, "size_bytes", 0)
        return 20 + inner

    def decremented(self) -> "IPv4Packet":
        """Copy of the packet with TTL reduced by one (same packet id)."""
        return IPv4Packet(
            src=self.src,
            dst=self.dst,
            protocol=self.protocol,
            payload=self.payload,
            ttl=self.ttl - 1,
            packet_id=self.packet_id,
        )


@dataclass(frozen=True)
class EthernetFrame:
    """Ethernet II frame."""

    src_mac: MacAddress
    dst_mac: MacAddress
    ethertype: EtherType
    payload: Any
    vlan: Optional[int] = None

    @property
    def size_bytes(self) -> int:
        """Frame size including the 18-byte Ethernet header/FCS (64-byte minimum)."""
        inner = getattr(self.payload, "size_bytes", 0)
        return max(64, 18 + inner + (4 if self.vlan is not None else 0))

    def with_dst_mac(self, dst_mac: MacAddress) -> "EthernetFrame":
        """Copy of the frame with a rewritten destination MAC (switch action)."""
        return EthernetFrame(
            src_mac=self.src_mac,
            dst_mac=dst_mac,
            ethertype=self.ethertype,
            payload=self.payload,
            vlan=self.vlan,
        )

    def with_src_mac(self, src_mac: MacAddress) -> "EthernetFrame":
        """Copy of the frame with a rewritten source MAC."""
        return EthernetFrame(
            src_mac=src_mac,
            dst_mac=self.dst_mac,
            ethertype=self.ethertype,
            payload=self.payload,
            vlan=self.vlan,
        )
