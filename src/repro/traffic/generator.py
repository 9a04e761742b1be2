"""Packet-level traffic source (the FPGA "source" board).

A :class:`TrafficSource` is a simple host with one port: it resolves its
gateway once via ARP (or uses a statically configured gateway MAC) and
then streams periodic UDP packets towards each configured flow's
destination.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.arp.cache import ArpCache
from repro.arp.protocol import ArpHandler, build_arp_request
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.interfaces import Interface
from repro.net.links import Port
from repro.net.packets import (
    EtherType,
    EthernetFrame,
    IpProtocol,
    IPv4Packet,
    UdpDatagram,
)
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.traffic.flows import FlowSpec


@dataclass
class TrafficSourceConfig:
    """Configuration of the source board."""

    ip: IPv4Address
    mac: MacAddress
    subnet: IPv4Prefix
    gateway_ip: IPv4Address
    flows: List[FlowSpec] = field(default_factory=list)
    #: Add up to this fraction of jitter to each flow's interval so flows
    #: do not stay phase-locked (the FPGA generator round-robins flows).
    jitter: float = 0.05


class TrafficSource:
    """Streams UDP packets towards each flow's destination via the gateway."""

    def __init__(self, sim: Simulator, name: str, config: TrafficSourceConfig) -> None:
        self._sim = sim
        self.name = name
        self.config = config
        port = Port(name, 0)
        port.set_frame_handler(self._handle_frame)
        self.interface = Interface(
            name="eth0", port=port, mac=config.mac, ip=config.ip, subnet=config.subnet
        )
        self._arp_cache = ArpCache()
        self._arp_handler = ArpHandler(
            self._arp_cache, now=lambda: sim.now, owned={config.ip: config.mac}
        )
        self._gateway_mac: Optional[MacAddress] = None
        self._processes: Dict[IPv4Address, PeriodicProcess] = {}
        self.packets_sent = 0
        self.packets_sent_per_flow: Dict[IPv4Address, int] = {}

    @property
    def port(self) -> Port:
        """The source's single port (for wiring into the lab)."""
        return self.interface.port

    @property
    def gateway_resolved(self) -> bool:
        """Whether the gateway MAC is known."""
        return self._gateway_mac is not None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Resolve the gateway and start all flows."""
        if self._gateway_mac is None:
            self._resolve_gateway()
        for flow in self.config.flows:
            self._start_flow(flow)

    def stop(self) -> None:
        """Stop every flow."""
        for process in self._processes.values():
            process.stop()
        self._processes.clear()

    def add_flow(self, flow: FlowSpec) -> None:
        """Add (and immediately start) a flow."""
        self.config.flows.append(flow)
        self._start_flow(flow)

    def set_gateway_mac(self, mac: MacAddress) -> None:
        """Statically configure the gateway MAC, skipping ARP."""
        self._gateway_mac = mac

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_gateway(self) -> None:
        frame = build_arp_request(
            sender_mac=self.config.mac,
            sender_ip=self.config.ip,
            target_ip=self.config.gateway_ip,
        )
        self.interface.port.send(frame)

    def _start_flow(self, flow: FlowSpec) -> None:
        if flow.destination in self._processes:
            return
        process = PeriodicProcess(
            self._sim,
            flow.interval,
            lambda: self._send_packet(flow),
            jitter=self.config.jitter,
            name=f"{self.name}:flow:{flow.destination}",
        )
        # Spread flow start times over one interval to avoid bursts.
        offset = self._sim.random.uniform(0.0, flow.interval)
        process.start(initial_delay=offset)
        self._processes[flow.destination] = process

    def _send_packet(self, flow: FlowSpec) -> None:
        if self._gateway_mac is None:
            # Gateway not resolved yet: retry the ARP and skip this tick.
            self._resolve_gateway()
            return
        datagram = UdpDatagram(
            src_port=flow.src_port,
            dst_port=flow.dst_port,
            payload_bytes=flow.payload_bytes,
        )
        packet = IPv4Packet(
            src=self.config.ip,
            dst=flow.destination,
            protocol=IpProtocol.UDP,
            payload=datagram,
        )
        frame = EthernetFrame(
            src_mac=self.config.mac,
            dst_mac=self._gateway_mac,
            ethertype=EtherType.IPV4,
            payload=packet,
        )
        if self.interface.port.send(frame):
            self.packets_sent += 1
            self.packets_sent_per_flow[flow.destination] = (
                self.packets_sent_per_flow.get(flow.destination, 0) + 1
            )

    def _handle_frame(self, frame: EthernetFrame, port: Port) -> None:
        if frame.ethertype is not EtherType.ARP:
            return
        packet = frame.payload
        reply = self._arp_handler.handle(packet)
        if packet.sender_ip == self.config.gateway_ip:
            self._gateway_mac = packet.sender_mac
        if reply is not None:
            port.send(reply)
