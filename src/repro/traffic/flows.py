"""Flow descriptions and per-flow statistics."""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.net.addresses import IPv4Address


class FlowSpec(NamedTuple):
    """One monitored UDP flow."""

    destination: IPv4Address
    rate_pps: float = 1000.0

    @property
    def interval(self) -> float:
        """Inter-packet interval in seconds."""
        return 1.0 / self.rate_pps


class FlowStats:
    """Arrival statistics of one flow at the sink."""

    __slots__ = (
        "destination", "packets_received", "first_arrival", "last_arrival",
        "max_gap", "max_gap_start", "gaps",
    )

    def __init__(self, destination: IPv4Address) -> None:
        self.destination = destination
        self.packets_received = 0
        self.first_arrival: Optional[float] = None
        self.last_arrival: Optional[float] = None
        self.max_gap = 0.0
        self.max_gap_start: Optional[float] = None
        self.gaps: List[float] = []

    def record(self, now: float) -> None:
        """Record a packet arrival at simulated time ``now``."""
        if self.first_arrival is None:
            self.first_arrival = now
        if self.last_arrival is not None:
            gap = now - self.last_arrival
            self.gaps.append(gap)
            if gap > self.max_gap:
                self.max_gap = gap
                self.max_gap_start = self.last_arrival
        self.last_arrival = now
        self.packets_received += 1

    def max_gap_excluding_interval(self, interval: float) -> float:
        """The worst outage seen by the flow, net of the nominal spacing.

        The FPGA methodology reports the maximum inter-packet delay; a flow
        sending every ``interval`` seconds always has at least that much
        between packets, so the outage component is ``max_gap - interval``.
        """
        return max(self.max_gap - interval, 0.0)
