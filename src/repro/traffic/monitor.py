"""Packet-level traffic sink (the FPGA "sink" board).

The sink accepts every IPv4 frame addressed to one of its MACs, matches the
destination IP against the set of monitored flows (the FPGA used a CAM for
this) and updates the per-flow maximum inter-packet delay.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.arp.cache import ArpCache
from repro.arp.protocol import ArpHandler
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.interfaces import Interface
from repro.net.links import Port
from repro.net.packets import EtherType, EthernetFrame, IpProtocol
from repro.sim.engine import Simulator
from repro.traffic.flows import FlowStats


class TrafficSink:
    """Terminates monitored flows and records arrival statistics.

    The sink can have several interfaces (the paper wires it to both R2 and
    R3 so traffic reaches it regardless of the path taken).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self._sim = sim
        self.name = name
        self.interfaces: Dict[str, Interface] = {}
        self._arp_cache = ArpCache()
        self._arp_handler = ArpHandler(self._arp_cache, now=lambda: sim.now)
        self._flows: Dict[IPv4Address, FlowStats] = {}
        self.packets_received = 0
        self.packets_ignored = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_interface(
        self, name: str, mac: MacAddress, ip: IPv4Address, subnet: IPv4Prefix
    ) -> Interface:
        """Add an interface; returns it so the lab can wire its port."""
        if name in self.interfaces:
            raise ValueError(f"interface {name} already exists on {self.name}")
        port = Port(self.name, len(self.interfaces))
        port.set_frame_handler(self._handle_frame)
        interface = Interface(name=name, port=port, mac=mac, ip=ip, subnet=subnet)
        self.interfaces[name] = interface
        self._arp_handler.register(ip, mac)
        return interface

    def monitor(self, destination: IPv4Address) -> FlowStats:
        """Start monitoring a destination IP (a CAM entry on the FPGA)."""
        if destination not in self._flows:
            self._flows[destination] = FlowStats(destination=destination)
        return self._flows[destination]

    def monitored(self) -> List[IPv4Address]:
        """All monitored destinations."""
        return list(self._flows.keys())

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def stats(self, destination: IPv4Address) -> Optional[FlowStats]:
        """Statistics of one monitored destination."""
        return self._flows.get(destination)

    def reset(self) -> None:
        """Clear per-flow statistics while keeping the monitored set."""
        for destination in list(self._flows.keys()):
            self._flows[destination] = FlowStats(destination=destination)
        self.packets_received = 0
        self.packets_ignored = 0

    # ------------------------------------------------------------------
    # Frame handling
    # ------------------------------------------------------------------
    def _handle_frame(self, frame: EthernetFrame, port: Port) -> None:
        interface = self._interface_by_port(port)
        if interface is None:
            return
        if frame.ethertype is EtherType.ARP:
            reply = self._arp_handler.handle(frame.payload)
            if reply is not None:
                port.send(reply)
            return
        if frame.ethertype is not EtherType.IPV4:
            return
        if frame.dst_mac != interface.mac and not frame.dst_mac.is_broadcast:
            return
        packet = frame.payload
        if packet.protocol is not IpProtocol.UDP:
            return
        stats = self._flows.get(packet.dst)
        if stats is None:
            self.packets_ignored += 1
            return
        self.packets_received += 1
        stats.record(self._sim.now)

    def _interface_by_port(self, port: Port) -> Optional[Interface]:
        for interface in self.interfaces.values():
            if interface.port is port:
                return interface
        return None
