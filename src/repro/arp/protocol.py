"""ARP request/reply construction and a generic protocol handler."""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.packets import ArpOp, ArpPacket, EtherType, EthernetFrame


def build_arp_request(
    sender_mac: MacAddress, sender_ip: IPv4Address, target_ip: IPv4Address
) -> EthernetFrame:
    """Build a broadcast who-has frame."""
    packet = ArpPacket(
        op=ArpOp.REQUEST,
        sender_mac=sender_mac,
        sender_ip=sender_ip,
        target_mac=MacAddress(0),
        target_ip=target_ip,
    )
    return EthernetFrame(
        src_mac=sender_mac,
        dst_mac=BROADCAST_MAC,
        ethertype=EtherType.ARP,
        payload=packet,
    )


def build_arp_reply(
    sender_mac: MacAddress,
    sender_ip: IPv4Address,
    target_mac: MacAddress,
    target_ip: IPv4Address,
) -> EthernetFrame:
    """Build a unicast is-at frame answering a request."""
    packet = ArpPacket(
        op=ArpOp.REPLY,
        sender_mac=sender_mac,
        sender_ip=sender_ip,
        target_mac=target_mac,
        target_ip=target_ip,
    )
    return EthernetFrame(
        src_mac=sender_mac,
        dst_mac=target_mac,
        ethertype=EtherType.ARP,
        payload=packet,
    )


class ArpHandler:
    """Answers ARP requests for a set of owned IP addresses and learns
    bindings from every ARP packet seen.

    :meth:`register` names each IP address the handler answers for and
    the MAC it should advertise — for a host's interface this is the
    interface MAC, for a virtual next hop the supercharged controller
    registers it is the *virtual* MAC of the backup group the virtual IP
    belongs to.
    """

    def __init__(self, cache, now: Callable[[], float]) -> None:
        self._cache = cache
        self._now = now
        self._owned: Dict[IPv4Address, MacAddress] = {}
        self.requests_answered = 0
        self.requests_seen = 0

    def register(self, ip: IPv4Address, mac: MacAddress) -> None:
        """Start answering requests for ``ip`` with ``mac``."""
        self._owned[ip] = mac

    def bindings(self) -> Dict[IPv4Address, MacAddress]:
        """Every IP answered for, with the MAC it is answered with."""
        return dict(self._owned)

    def handle(self, packet: ArpPacket) -> Optional[EthernetFrame]:
        """Process an ARP packet; returns a reply frame when one is due."""
        # Gratuitous learning: every ARP packet reveals the sender binding.
        self._cache.learn(packet.sender_ip, packet.sender_mac, self._now())
        if packet.op is ArpOp.REPLY:
            return None
        self.requests_seen += 1
        mac = self._owned.get(packet.target_ip)
        if mac is None:
            return None
        self.requests_answered += 1
        return build_arp_reply(
            sender_mac=mac,
            sender_ip=packet.target_ip,
            target_mac=packet.sender_mac,
            target_ip=packet.sender_ip,
        )
