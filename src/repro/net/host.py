"""The endpoint every box on the switch is: an IP host.

R1, the provider routers, the supercharged controller and both traffic
boards are the same thing at L2/L3 — named interfaces with a MAC that
answer ARP — and differ only in what they do with a packet once it is
theirs.  :class:`Host` is that common part, written once: interfaces over
ports that know their owner, one ARP cache / responder / client, one
accept filter, one transmit path towards an on-link neighbour and one
demux that hands BGP transport and BFD to the speaker and detector a
subclass plugs in.

Import it from here, not from :mod:`repro.net`: the ARP modules import
``repro.net.addresses``, so the package ``__init__`` cannot import them
back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

from repro.arp.cache import ArpCache
from repro.arp.client import ArpClient
from repro.arp.protocol import ArpHandler
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.interfaces import Interface
from repro.net.links import Port
from repro.net.packets import (
    ArpPacket,
    BfdControl,
    BgpTransport,
    EtherType,
    EthernetFrame,
    IpProtocol,
    IPv4Packet,
)
from repro.sim.engine import Simulator

if TYPE_CHECKING:
    from repro.bfd.manager import BfdManager
    from repro.bgp.messages import BgpMessage
    from repro.bgp.speaker import BgpSpeaker


class Host:
    """An IP endpoint: interfaces, ARP, neighbour transmit and frame demux.

    A subclass that speaks BGP or runs BFD builds the speaker / manager
    with :meth:`_send_bgp` / :meth:`_send_bfd` as its transport, stores it
    in :attr:`bgp` / :attr:`bfd` and registers
    :meth:`_handle_bfd_peer_down` with the manager; received BGP and BFD
    then reach it through the demux.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}
        #: Interfaces by port number (ports are numbered in creation order).
        self._by_port: List[Interface] = []
        self.arp_cache = ArpCache()
        self.arp_client = ArpClient(sim, self.arp_cache)
        self._arp_handler = ArpHandler(self.arp_cache, now=lambda: sim.now)
        self.bgp: Optional["BgpSpeaker"] = None
        self.bfd: Optional["BfdManager"] = None

    # ------------------------------------------------------------------
    # Interfaces and neighbours
    # ------------------------------------------------------------------
    def add_interface(
        self,
        name: str,
        mac: MacAddress,
        ip: Optional[IPv4Address] = None,
        subnet: Optional[IPv4Prefix] = None,
    ) -> Interface:
        """Create an interface (and its port) ready to be wired to a link."""
        if name in self.interfaces:
            raise ValueError(f"interface {name} already exists on {self.name}")
        port = Port(self.name, len(self._by_port), owner=self)
        port.set_frame_handler(self._handle_frame)
        interface = Interface(name=name, port=port, mac=mac, ip=ip, subnet=subnet)
        self.interfaces[name] = interface
        self._by_port.append(interface)
        if ip is not None:
            self._arp_handler.register(ip, mac)
        return interface

    def interface_for(self, address: IPv4Address) -> Optional[Interface]:
        """The interface whose connected subnet covers ``address``."""
        for interface in self._by_port:
            if interface.covers(address):
                return interface
        return None

    def has_address(self, address: IPv4Address) -> bool:
        """Whether ``address`` is configured on one of the interfaces."""
        return any(interface.ip == address for interface in self._by_port)

    def accepts(self, port: Port, dst_mac: MacAddress) -> bool:
        """The accept filter: a frame arriving on ``port`` (one of ours) is
        taken when it is addressed to that interface's MAC or to broadcast."""
        return dst_mac == self._by_port[port.number].mac or dst_mac.is_broadcast

    def add_static_neighbor(self, ip: IPv4Address, mac: MacAddress) -> None:
        """Configure the MAC of an on-link neighbour: never ARPed for,
        never aged out."""
        self.arp_cache.learn(ip, mac, self._sim.now, static=True)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send_to_neighbor(self, ip: IPv4Address, ethertype: EtherType, payload: object) -> bool:
        """Send ``payload`` to the on-link neighbour ``ip``.

        A cached (or statically configured) binding sends at once;
        otherwise the payload queues behind one ARP exchange, like a real
        host's neighbour queue, and is dropped if it stays unanswered.
        Returns whether a frame went on the wire *now*.
        """
        interface = self._egress(ip)
        return interface is not None and self._send_on(interface, ip, ethertype, payload)

    def _egress(self, ip: IPv4Address) -> Optional[Interface]:
        """The numbered interface ``ip`` is a neighbour on (an unnumbered
        one has no address to send, or ARP, from)."""
        interface = self.interface_for(ip)
        return interface if interface is not None and interface.ip is not None else None

    def _send_on(
        self, interface: Interface, ip: IPv4Address, ethertype: EtherType, payload: object
    ) -> bool:
        mac = self.arp_cache.lookup(ip, self._sim.now)
        if mac is not None:
            return self._transmit(interface, mac, ethertype, payload)
        self.arp_client.resolve(
            ip,
            interface,
            lambda resolved: resolved is not None
            and self._transmit(interface, resolved, ethertype, payload),
        )
        return False

    def _transmit(
        self, interface: Interface, mac: MacAddress, ethertype: EtherType, payload: object
    ) -> bool:
        return interface.is_up and interface.port.send(
            EthernetFrame(interface.mac, mac, ethertype, payload)
        )

    def _send_bgp(self, peer_ip: IPv4Address, message: "BgpMessage") -> None:
        interface = self._egress(peer_ip)
        if interface is not None:
            transport = BgpTransport(interface.ip, peer_ip, message)
            self._send_on(interface, peer_ip, EtherType.BGP_TRANSPORT, transport)

    def _send_bfd(self, peer_ip: IPv4Address, packet: BfdControl) -> None:
        interface = self._egress(peer_ip)
        if interface is not None:
            ip_packet = IPv4Packet(
                src=interface.ip, dst=peer_ip, protocol=IpProtocol.BFD, payload=packet
            )
            self._send_on(interface, peer_ip, EtherType.IPV4, ip_packet)

    # ------------------------------------------------------------------
    # Reception
    # ------------------------------------------------------------------
    def _handle_frame(self, frame: EthernetFrame, port: Port) -> None:
        if not self.accepts(port, frame.dst_mac):
            return
        interface = self._by_port[port.number]
        if frame.ethertype is EtherType.ARP:
            self._handle_arp(frame.payload, interface)
        elif frame.ethertype is EtherType.BGP_TRANSPORT:
            transport: BgpTransport = frame.payload
            if self.bgp is not None and transport.dst_ip == interface.ip:
                self.bgp.deliver(transport.src_ip, transport.message)
        elif frame.ethertype is EtherType.IPV4:
            self._handle_ipv4(frame.payload)

    def _handle_arp(self, packet: ArpPacket, interface: Interface) -> None:
        # Every ARP packet reveals its sender: pending resolutions complete
        # and the binding is cached before a request for us is answered.
        self.arp_client.handle_reply(packet)
        reply = self._arp_handler.handle(packet)
        if reply is not None and interface.is_up:
            interface.port.send(reply)

    def _handle_ipv4(self, packet: IPv4Packet) -> None:
        """An accepted IPv4 packet.  The endpoint itself only terminates
        BFD; a router forwards what is not its own, a sink counts flows."""
        if (
            packet.protocol is IpProtocol.BFD
            and self.bfd is not None
            and self.has_address(packet.dst)
        ):
            self.bfd.receive(packet.src, packet.payload)

    def _handle_bfd_peer_down(self, peer_ip: IPv4Address, reason: str) -> None:
        """BFD is the fast failure detector of the BGP sessions."""
        if self.bgp is not None and peer_ip in self.bgp.peers():
            self.bgp.peer_connection_lost(peer_ip, f"BFD: {reason}")
