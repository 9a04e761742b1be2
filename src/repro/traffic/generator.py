"""Packet-level traffic source (the FPGA "source" board).

A :class:`TrafficSource` is a :class:`~repro.net.host.Host` with one
interface: it streams periodic UDP packets towards each configured flow's
destination through its gateway, which it resolves via ARP unless the
gateway was configured as a static neighbour.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.host import Host
from repro.net.links import Port
from repro.net.packets import EtherType, IpProtocol, IPv4Packet, UdpDatagram
from repro.sim.engine import Simulator
from repro.sim.process import PeriodicProcess
from repro.traffic.flows import FlowSpec

#: Up to this fraction of jitter on each flow's interval, so flows do not
#: stay phase-locked (the FPGA generator round-robins flows).
FLOW_JITTER = 0.05
#: The UDP header of every probe (nothing reads its ports; one immutable
#: value serves every packet).
PROBE_DATAGRAM = UdpDatagram(src_port=10000, dst_port=9)


class TrafficSourceConfig(NamedTuple):
    """Configuration of the source board."""

    ip: IPv4Address
    mac: MacAddress
    subnet: IPv4Prefix
    gateway_ip: IPv4Address


class TrafficSource(Host):
    """Streams UDP packets towards each flow's destination via the gateway."""

    def __init__(self, sim: Simulator, name: str, config: TrafficSourceConfig) -> None:
        super().__init__(sim, name)
        self.config = config
        self.flows: List[FlowSpec] = []
        self.interface = self.add_interface("eth0", config.mac, config.ip, config.subnet)
        self._processes: Dict[IPv4Address, PeriodicProcess] = {}
        self.packets_sent = 0
        self.packets_sent_per_flow: Dict[IPv4Address, int] = {}

    @property
    def port(self) -> Port:
        """The source's single port (for wiring into the lab)."""
        return self.interface.port

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start all flows."""
        for flow in self.flows:
            self._start_flow(flow)

    def stop(self) -> None:
        """Stop every flow."""
        for process in self._processes.values():
            process.stop()
        self._processes.clear()

    def add_flow(self, flow: FlowSpec) -> None:
        """Add (and immediately start) a flow."""
        self.flows.append(flow)
        self._start_flow(flow)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _start_flow(self, flow: FlowSpec) -> None:
        if flow.destination in self._processes:
            return
        process = PeriodicProcess(
            self._sim,
            flow.interval,
            lambda: self._send_packet(flow),
            jitter=FLOW_JITTER,
            name=f"{self.name}:flow:{flow.destination}",
        )
        # Spread flow start times over one interval to avoid bursts.
        offset = self._sim.random.uniform(0.0, flow.interval)
        process.start(initial_delay=offset)
        self._processes[flow.destination] = process

    def _send_packet(self, flow: FlowSpec) -> None:
        packet = IPv4Packet(
            src=self.config.ip,
            dst=flow.destination,
            protocol=IpProtocol.UDP,
            payload=PROBE_DATAGRAM,
        )
        # A packet queued behind the gateway's ARP exchange is not counted.
        if self.send_to_neighbor(self.config.gateway_ip, EtherType.IPV4, packet):
            self.packets_sent += 1
            self.packets_sent_per_flow[flow.destination] = (
                self.packets_sent_per_flow.get(flow.destination, 0) + 1
            )
