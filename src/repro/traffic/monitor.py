"""Packet-level traffic sink (the FPGA "sink" board).

The sink is a :class:`~repro.net.host.Host` that takes every UDP packet
addressed to one of its MACs, matches the destination IP against the set
of monitored flows (the FPGA used a CAM for this) and updates the
per-flow maximum inter-packet delay.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.net.addresses import IPv4Address
from repro.net.host import Host
from repro.net.packets import IpProtocol, IPv4Packet
from repro.sim.engine import Simulator
from repro.traffic.flows import FlowStats


class TrafficSink(Host):
    """Terminates monitored flows and records arrival statistics.

    The sink can have several interfaces (the paper wires it to both R2 and
    R3 so traffic reaches it regardless of the path taken).
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        self._flows: Dict[IPv4Address, FlowStats] = {}
        self.packets_received = 0
        self.packets_ignored = 0

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
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
    def _handle_ipv4(self, packet: IPv4Packet) -> None:
        if packet.protocol is not IpProtocol.UDP:
            return
        stats = self._flows.get(packet.dst)
        if stats is None:
            self.packets_ignored += 1
            return
        self.packets_received += 1
        stats.record(self._sim.now)
