"""Event-driven reachability measurement.

:class:`PathTracer` walks the *current* forwarding state (router FIBs,
switch flow tables, link states) from the traffic source towards a
destination, exactly like a packet would be treated, but without generating
packets.  :class:`ReachabilityMonitor` re-runs that walk for every
monitored destination whenever a relevant piece of forwarding state
changes and records the outage intervals, giving exact per-destination
convergence times even for full-table experiments.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.links import Port
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram
from repro.openflow.switch import OpenFlowSwitch
from repro.router.router import Router
from repro.sim.engine import Simulator
from repro.traffic.monitor import TrafficSink


class TraceHop(NamedTuple):
    """One hop of a forwarding-state walk (diagnostics)."""

    node: str
    detail: str


class _DestinationState:
    """Book-keeping for one monitored destination."""

    __slots__ = ("destination", "prefix", "reachable", "down_since", "outages", "detections")

    def __init__(self, destination: IPv4Address, prefix: Optional[IPv4Prefix]) -> None:
        self.destination = destination
        self.prefix = prefix
        self.reachable: Optional[bool] = None
        self.down_since: Optional[float] = None
        self.outages: List[Tuple[float, float]] = []
        #: Detection label of each closed outage (parallel to ``outages``):
        #: how the failure behind it was detected ("bfd", "bgp", …), or
        #: None when no detection event was reported before it closed.
        self.detections: List[Optional[str]] = []


class PathTracer:
    """Walks forwarding state from a source port towards destinations."""

    MAX_HOPS = 16

    def __init__(
        self,
        start_port: Port,
        first_hop_mac: Callable[[], Optional[MacAddress]],
    ) -> None:
        """``first_hop_mac`` returns the gateway MAC the source would use;
        every later device is the owner of the port a link leads to."""
        self._start_port = start_port
        self._first_hop_mac = first_hop_mac

    def trace(self, destination: IPv4Address) -> Tuple[bool, List[TraceHop]]:
        """Whether a packet to ``destination`` would currently be delivered."""
        hops: List[TraceHop] = []
        dst_mac = self._first_hop_mac()
        if dst_mac is None:
            hops.append(TraceHop("source", "gateway unresolved"))
            return False, hops
        current_port = self._start_port
        for _ in range(self.MAX_HOPS):
            link = current_port.link
            if link is None or not current_port.is_up:
                hops.append(TraceHop(current_port.owner_name, "link down"))
                return False, hops
            ingress = link.peer_of(current_port)
            node = ingress.owner
            if node is None:
                hops.append(TraceHop(ingress.owner_name, "unknown device"))
                return False, hops
            outcome = self._step(node, ingress, dst_mac, destination, hops)
            if outcome is None:
                return False, hops
            if outcome == "delivered":
                return True, hops
            current_port, dst_mac = outcome
        hops.append(TraceHop("trace", "hop limit exceeded"))
        return False, hops

    # ------------------------------------------------------------------
    # Per-device stepping
    # ------------------------------------------------------------------
    def _step(
        self,
        node: object,
        ingress: Port,
        dst_mac: MacAddress,
        destination: IPv4Address,
        hops: List[TraceHop],
    ):
        if isinstance(node, OpenFlowSwitch):
            return self._step_switch(node, ingress, dst_mac, destination, hops)
        if isinstance(node, Router):
            return self._step_router(node, ingress, dst_mac, destination, hops)
        if isinstance(node, TrafficSink):
            if node.accepts(ingress, dst_mac):
                hops.append(TraceHop(node.name, "delivered"))
                return "delivered"
            hops.append(TraceHop(node.name, "wrong MAC at sink"))
            return None
        hops.append(TraceHop(getattr(node, "name", "?"), "not a forwarding device"))
        return None

    def _step_switch(self, switch, ingress, dst_mac, destination, hops):
        entry = switch.flow_table.lookup(_probe_frame(dst_mac, destination), ingress.number)
        if entry is None:
            hops.append(TraceHop(switch.name, "table miss"))
            return None
        actions = entry.actions
        if actions.is_drop:
            hops.append(TraceHop(switch.name, "dropped"))
            return None
        next_mac = actions.set_eth_dst if actions.set_eth_dst is not None else dst_mac
        out_port = switch.ports().get(actions.output_port)
        if out_port is None or not out_port.is_up:
            hops.append(TraceHop(switch.name, f"output port {actions.output_port} down"))
            return None
        hops.append(TraceHop(switch.name, f"out port {actions.output_port}"))
        return out_port, next_mac

    def _step_router(self, router, ingress, dst_mac, destination, hops):
        if not router.accepts(ingress, dst_mac):
            hops.append(TraceHop(router.name, "frame not addressed to router"))
            return None
        decision = router.forwarding_decision(destination)
        if decision is None:
            hops.append(TraceHop(router.name, "no route / unresolved adjacency"))
            return None
        out_interface, next_mac = decision
        hops.append(TraceHop(router.name, f"via {out_interface.name} -> {next_mac}"))
        return out_interface.port, next_mac


def _probe_frame(dst_mac: MacAddress, destination: IPv4Address) -> EthernetFrame:
    """A throwaway frame used only for flow-table matching."""
    packet = IPv4Packet(
        src=IPv4Address("0.0.0.1"),
        dst=destination,
        protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=0, dst_port=0),
    )
    return EthernetFrame(
        src_mac=MacAddress(0x02_00_00_00_00_01),
        dst_mac=dst_mac,
        ethertype=EtherType.IPV4,
        payload=packet,
    )


class ReachabilityMonitor:
    """Tracks per-destination outages by re-evaluating the forwarding path
    whenever forwarding state changes."""

    def __init__(self, sim: Simulator, tracer: PathTracer) -> None:
        self._sim = sim
        self._tracer = tracer
        self._destinations: Dict[IPv4Address, _DestinationState] = {}
        #: Prefix length -> masked destination value -> monitored states
        #: (watch order), so a FIB write finds its covered flows with one
        #: probe.  A length is indexed the first time a prefix of that
        #: length changes; ``watch`` drops the whole index.
        self._covered: Dict[int, Dict[int, List[_DestinationState]]] = {}
        self.evaluations = 0
        #: Asked, when an outage closes, for the detection label it carries.
        #: Whoever owns the episode semantics (the lab's episode book) is
        #: plugged in here; the monitor keeps no episode state of its own.
        self.detection_label: Callable[[], Optional[str]] = lambda: None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def watch(self, destination: IPv4Address, prefix: Optional[IPv4Prefix] = None) -> None:
        """Start monitoring ``destination`` (covered by ``prefix`` if known)."""
        if destination not in self._destinations:
            self._destinations[destination] = _DestinationState(destination, prefix)
            self._covered.clear()

    # ------------------------------------------------------------------
    # Event notifications
    # ------------------------------------------------------------------
    def evaluate_all(self) -> None:
        """(Re-)evaluate every monitored destination right now."""
        for state in self._destinations.values():
            self._evaluate(state)

    def notify_forwarding_change(self) -> None:
        """A global forwarding change happened (link state, switch rule…)."""
        self.evaluate_all()

    def notify_prefix_change(self, prefix: IPv4Prefix) -> None:
        """A FIB entry for ``prefix`` changed: re-evaluate covered flows."""
        network, length = prefix.as_tuple()
        buckets = self._covered.get(length)
        if buckets is None:
            buckets = self._covered[length] = {}
            mask = IPv4Prefix.mask_for(length)
            for state in self._destinations.values():
                buckets.setdefault(state.destination & mask, []).append(state)
        for state in buckets.get(network, ()):
            self._evaluate(state)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def is_reachable(self, destination: IPv4Address) -> Optional[bool]:
        """Last known reachability of ``destination``."""
        state = self._destinations.get(destination)
        return state.reachable if state is not None else None

    def convergence_details(
        self, failure_time: float
    ) -> Dict[IPv4Address, Tuple[float, Optional[str]]]:
        """Per monitored destination: the longest outage that began at or
        after ``failure_time`` (a still-open one counts up to now, 0.0 when
        the destination never went down), with the detection label of that
        outage (None when none was reported, or the outage is still open)."""
        results: Dict[IPv4Address, Tuple[float, Optional[str]]] = {}
        for destination, state in self._destinations.items():
            duration = 0.0
            label: Optional[str] = None
            for (down_at, up_at), detected in zip(state.outages, state.detections):
                if up_at >= failure_time and down_at >= failure_time - 1e-9:
                    if up_at - down_at >= duration:
                        duration = up_at - down_at
                        label = detected
            if state.reachable is False and state.down_since is not None:
                if state.down_since >= failure_time - 1e-9:
                    elapsed = self._sim.now - state.down_since
                    if elapsed >= duration:
                        duration = elapsed
                        label = None  # still down: nothing closed this outage
            results[destination] = (duration, label)
        return results

    def reset(self) -> None:
        """Forget recorded outages, keeping the monitored set and state."""
        for state in self._destinations.values():
            state.outages.clear()
            state.detections.clear()
            state.down_since = state.down_since if state.reachable is False else None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _evaluate(self, state: _DestinationState) -> None:
        self.evaluations += 1
        reachable, _hops = self._tracer.trace(state.destination)
        now = self._sim.now
        if state.reachable is None:
            state.reachable = reachable
            if not reachable:
                state.down_since = now
            return
        if reachable and state.reachable is False:
            state.outages.append((state.down_since if state.down_since is not None else now, now))
            state.detections.append(self.detection_label())
            state.down_since = None
        elif not reachable and state.reachable is True:
            state.down_since = now
        state.reachable = reachable
