"""The legacy router node.

:class:`Router` glues together the pieces a hardware router contains:

* the :class:`~repro.net.host.Host` every box on the wire is (numbered
  interfaces, ARP client/server, BGP/BFD transport and frame demux);
* a BGP speaker (control plane) whose best-path changes drive…
* …the serial :class:`~repro.router.fib_updater.FibUpdater` feeding a flat
  (or, optionally, hierarchical) FIB;
* an optional BFD manager for fast failure detection;
* an IPv4 data plane doing longest-prefix-match forwarding.

The same class plays R1 (the supercharged router), R2 and R3 (the provider
peers) in the evaluation lab — only the configuration differs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.bfd.manager import BfdManager
from repro.bgp.rib import RibChange
from repro.bgp.speaker import BgpSpeaker, PeerConfig
from repro.net.addresses import MASKS, IPv4Address, IPv4Prefix, MacAddress
from repro.net.host import Host
from repro.net.interfaces import Interface
from repro.net.links import LinkState, Port
from repro.net.packets import EtherType, EthernetFrame, IPv4Packet
from repro.router.fib import Adjacency, FlatFib, HierarchicalFib
from repro.router.fib_updater import FibUpdater, FibUpdaterConfig, FibWriteRequest
from repro.sim.engine import Simulator


#: Per-packet forwarding latency of the data plane.
FORWARDING_LATENCY = 10e-6


class RouterConfig(NamedTuple):
    """Per-router knobs."""

    asn: int
    router_id: IPv4Address
    fib_updater: FibUpdaterConfig = FibUpdaterConfig()
    #: Use a PIC-style hierarchical FIB instead of a flat one (ablation).
    hierarchical_fib: bool = False
    #: BFD transmit interval; ``None`` disables BFD on this router.
    bfd_interval: Optional[float] = None
    bfd_multiplier: int = 3


class StaticRoute(NamedTuple):
    """A statically configured route (installed at boot, bypassing BGP)."""

    prefix: IPv4Prefix
    next_hop: IPv4Address


class Router(Host):
    """A simulated IP router / BGP speaker."""

    def __init__(self, sim: Simulator, name: str, config: RouterConfig) -> None:
        super().__init__(sim, name)
        self._fwd_name = f"{name}:fwd"
        self.config = config
        self.fib = HierarchicalFib() if config.hierarchical_fib else FlatFib()
        # The serial updater only drives flat FIBs; hierarchical routers
        # converge by repointing adjacencies (see _peer_unreachable).
        self._flat_for_updater = self.fib if isinstance(self.fib, FlatFib) else FlatFib()
        self.fib_updater = FibUpdater(
            sim, self._flat_for_updater, config.fib_updater, name=f"{name}:fib"
        )
        self.bgp = BgpSpeaker(
            sim,
            asn=config.asn,
            router_id=config.router_id,
            transport=self._send_bgp,
        )
        self.bgp.on_rib_change(self._handle_rib_changes)
        if config.bfd_interval is not None:
            self.bfd = BfdManager(
                sim,
                send=self._send_bfd,
                tx_interval=config.bfd_interval,
                detect_multiplier=config.bfd_multiplier,
            )
            self.bfd.on_peer_down(self._handle_bfd_peer_down)
        # Next-hop IP -> resolved adjacency, shared by all prefixes via that NH.
        self._adjacency_cache: Dict[IPv4Address, Adjacency] = {}
        # Next-hop IP -> prefixes waiting for ARP resolution.
        self._pending_adjacency: Dict[IPv4Address, List[IPv4Prefix]] = {}
        # Hierarchical FIB: next-hop IP -> pointer id.
        self._pointer_by_next_hop: Dict[IPv4Address, int] = {}
        self._static_routes: List[StaticRoute] = []
        # Prefixes this router blackholes: it advertises no route for them
        # and drops matching traffic even if a covering route (e.g. a static
        # default) exists.  Models a failure *beyond* this router — the
        # upstream path died while the local links stayed up (remote-failure
        # scenarios).
        self._blackholes: Set[IPv4Prefix] = set()
        # Blackholed prefixes per mask length: a prefix is its code, so a
        # packet costs one exact-match probe per length present.
        self._blackhole_lengths: Dict[int, int] = {}
        # Listeners notified when forwarding state changes outside the serial
        # FIB updater (hierarchical-FIB writes and repoints); the argument is
        # the affected prefix, or None for a change affecting many prefixes.
        self._fib_change_listeners: List[Callable[[Optional[IPv4Prefix]], None]] = []
        #: Data-plane counters.
        self.packets_forwarded = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_no_adjacency = 0

    # ------------------------------------------------------------------
    # Interfaces
    # ------------------------------------------------------------------
    def add_interface(
        self,
        name: str,
        mac: MacAddress,
        ip: Optional[IPv4Address] = None,
        subnet: Optional[IPv4Prefix] = None,
    ) -> Interface:
        """Create an interface whose loss of carrier the router reacts to."""
        interface = super().add_interface(name, mac, ip, subnet)
        interface.port.set_state_handler(self._handle_link_state)
        return interface

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_bgp_peer(self, peer: PeerConfig) -> None:
        """Configure a BGP neighbor (session started by :meth:`start`)."""
        self.bgp.add_peer(peer)

    def add_bfd_peer(self, peer_ip: IPv4Address) -> None:
        """Start BFD liveness detection towards ``peer_ip``."""
        if self.bfd is None:
            raise RuntimeError(f"{self.name} has BFD disabled (bfd_interval is None)")
        self.bfd.add_peer(peer_ip)

    def add_static_route(self, route: StaticRoute) -> None:
        """Install a static route immediately (boot-time configuration)."""
        self._static_routes.append(route)
        self._install_route(route.prefix, route.next_hop, immediate=True)

    def add_blackhole(self, prefix: IPv4Prefix) -> None:
        """Start dropping traffic towards ``prefix`` (upstream path lost)."""
        if prefix not in self._blackholes:
            self._blackholes.add(prefix)
            lengths = self._blackhole_lengths
            lengths[prefix.length] = lengths.get(prefix.length, 0) + 1

    def clear_blackhole(self, prefix: IPv4Prefix) -> None:
        """Stop blackholing ``prefix`` (upstream path restored)."""
        if prefix in self._blackholes:
            self._blackholes.remove(prefix)
            lengths = self._blackhole_lengths
            lengths[prefix.length] -= 1
            if not lengths[prefix.length]:
                del lengths[prefix.length]

    def blackholes_prefix(self, prefix: IPv4Prefix) -> bool:
        """Whether exactly ``prefix`` is currently blackholed."""
        return prefix in self._blackholes

    def is_blackholed(self, destination: IPv4Address) -> bool:
        """Whether traffic to ``destination`` is currently blackholed."""
        blackholes = self._blackholes
        for length in self._blackhole_lengths:
            if (((destination & MASKS[length]) << 6) | length) in blackholes:
                return True
        return False

    def on_fib_changed(self, handler: Callable[[Optional[IPv4Prefix]], None]) -> None:
        """Register a listener for forwarding changes not visible through the
        FIB updater (hierarchical-FIB writes/repoints).  ``None`` means the
        change potentially affects every prefix."""
        self._fib_change_listeners.append(handler)

    def _notify_fib_changed(self, prefix: Optional[IPv4Prefix]) -> None:
        for handler in list(self._fib_change_listeners):
            handler(prefix)

    def start(self) -> None:
        """Bring up the control plane (BGP sessions)."""
        self.bgp.start()

    # ------------------------------------------------------------------
    # Forwarding-state queries (no side effects; used by the path tracer)
    # ------------------------------------------------------------------
    def forwarding_decision(
        self, destination: IPv4Address
    ) -> Optional[Tuple[Interface, MacAddress]]:
        """Where a packet to ``destination`` would be sent *right now*.

        Connected destinations resolve through the ARP cache; remote ones
        through the FIB.  Returns ``None`` when the packet would be dropped.
        """
        if self._blackholes and self.is_blackholed(destination):
            return None
        local = self.interface_for(destination)
        if local is not None:
            mac = self.arp_cache.lookup(destination, self._sim.now)
            if mac is None:
                return None
            return (local, mac) if local.is_up else None
        entry = self.fib.lookup(destination)
        if entry is None:
            return None
        interface = self.interfaces.get(entry.adjacency.interface)
        if interface is None or not interface.is_up:
            return None
        return interface, entry.adjacency.mac

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def _handle_ipv4(self, packet: IPv4Packet) -> None:
        if self.has_address(packet.dst):
            super()._handle_ipv4(packet)
        else:
            self._forward(packet)

    def _forward(self, packet: IPv4Packet) -> None:
        if packet.ttl <= 1:
            self.packets_dropped_no_route += 1
            return
        decision = self.forwarding_decision(packet.dst)
        if decision is None:
            connected = self.interface_for(packet.dst)
            if connected is not None and connected.is_up:
                # Directly connected destination with no ARP entry yet:
                # resolve it and retransmit the packet once resolved.
                self.arp_client.resolve(
                    packet.dst,
                    connected,
                    lambda mac, p=packet: self._forward(p) if mac is not None else None,
                )
                return
            entry = self.fib.lookup(packet.dst)
            if entry is None and connected is None:
                self.packets_dropped_no_route += 1
            else:
                self.packets_dropped_no_adjacency += 1
            return
        interface, dst_mac = decision
        frame = EthernetFrame(
            src_mac=interface.mac,
            dst_mac=dst_mac,
            ethertype=EtherType.IPV4,
            payload=packet.decremented(),
        )

        def transmit() -> None:
            if interface.is_up:
                interface.port.send(frame)
                self.packets_forwarded += 1

        self._sim.schedule(FORWARDING_LATENCY, transmit, name=self._fwd_name)

    # ------------------------------------------------------------------
    # RIB -> FIB plumbing
    # ------------------------------------------------------------------
    def _handle_rib_changes(self, changes: List[RibChange], from_peer: IPv4Address) -> None:
        flat = not isinstance(self.fib, HierarchicalFib)
        adjacencies = self._adjacency_cache
        requests: List[FibWriteRequest] = []
        for change in changes:
            if not change.best_changed:
                continue
            best = change.new_best
            adjacency = None if best is None else adjacencies.get(best.attributes.next_hop)
            if flat and (best is None or adjacency is not None):
                requests.append(FibWriteRequest(change.prefix, adjacency))
                continue
            # Off the common path (unresolved next hop, PIC FIB): what has
            # gathered goes first, so the FIB queue keeps arrival order.
            self.fib_updater.enqueue_many(requests)
            requests = []
            if best is None:
                self._enqueue_delete(change.prefix)
            else:
                self._install_route(change.prefix, best.next_hop, immediate=False)
        self.fib_updater.enqueue_many(requests)

    def _install_route(
        self, prefix: IPv4Prefix, next_hop: IPv4Address, immediate: bool
    ) -> None:
        if isinstance(self.fib, HierarchicalFib):
            self._install_hierarchical(prefix, next_hop)
            return
        adjacency = self._adjacency_cache.get(next_hop)
        if adjacency is not None:
            self._enqueue_write(prefix, adjacency, immediate)
            return
        interface = self.interface_for(next_hop)
        if interface is None:
            # Next hop not on a connected subnet: unresolvable, treat as drop.
            self._enqueue_delete(prefix)
            return
        waiting = self._pending_adjacency.setdefault(next_hop, [])
        waiting.append(prefix)
        if len(waiting) == 1:
            self.arp_client.resolve(
                next_hop,
                interface,
                lambda mac, nh=next_hop, iface=interface: self._adjacency_resolved(
                    nh, mac, iface, immediate
                ),
            )

    def _adjacency_resolved(
        self,
        next_hop: IPv4Address,
        mac: Optional[MacAddress],
        interface: Interface,
        immediate: bool,
    ) -> None:
        waiting = self._pending_adjacency.pop(next_hop, [])
        if mac is None:
            for prefix in waiting:
                self._enqueue_delete(prefix)
            return
        adjacency = Adjacency(mac=mac, interface=interface.name, next_hop_ip=next_hop)
        self._adjacency_cache[next_hop] = adjacency
        for prefix in waiting:
            self._enqueue_write(prefix, adjacency, immediate)

    def _enqueue_write(
        self, prefix: IPv4Prefix, adjacency: Adjacency, immediate: bool
    ) -> None:
        self.fib_updater.enqueue(prefix, adjacency)
        if immediate:
            self.fib_updater.flush_immediately()

    def _enqueue_delete(self, prefix: IPv4Prefix) -> None:
        if isinstance(self.fib, HierarchicalFib):
            self.fib.delete(prefix)
            self._notify_fib_changed(prefix)
            return
        self.fib_updater.enqueue(prefix, None)

    # ------------------------------------------------------------------
    # Hierarchical (PIC) FIB path
    # ------------------------------------------------------------------
    def _install_hierarchical(self, prefix: IPv4Prefix, next_hop: IPv4Address) -> None:
        assert isinstance(self.fib, HierarchicalFib)
        pointer = self._pointer_by_next_hop.get(next_hop)
        if pointer is None:
            interface = self.interface_for(next_hop)
            if interface is None:
                return
            mac = self.arp_cache.lookup(next_hop, self._sim.now)
            if mac is None:
                # Resolve then retry; PIC routers still need ARP.
                self.arp_client.resolve(
                    next_hop,
                    interface,
                    lambda _mac, p=prefix, nh=next_hop: self._install_hierarchical(p, nh),
                )
                return
            adjacency = Adjacency(mac=mac, interface=interface.name, next_hop_ip=next_hop)
            pointer = self.fib.add_adjacency(adjacency)
            self._pointer_by_next_hop[next_hop] = pointer
        self.fib.write(prefix, pointer, now=self._sim.now)
        self._notify_fib_changed(prefix)

    def repoint_next_hop(self, old_next_hop: IPv4Address, new_next_hop: IPv4Address) -> bool:
        """PIC convergence: atomically repoint every prefix using
        ``old_next_hop`` to ``new_next_hop`` (hierarchical FIBs only)."""
        if not isinstance(self.fib, HierarchicalFib):
            return False
        pointer = self._pointer_by_next_hop.get(old_next_hop)
        if pointer is None:
            return False
        interface = self.interface_for(new_next_hop)
        if interface is None:
            return False
        mac = self.arp_cache.lookup(new_next_hop, self._sim.now)
        if mac is None:
            return False
        self.fib.repoint(
            pointer,
            Adjacency(mac=mac, interface=interface.name, next_hop_ip=new_next_hop),
        )
        self._notify_fib_changed(None)
        return True

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _handle_link_state(self, state: LinkState, port: Port) -> None:
        if state is not LinkState.DOWN:
            return
        interface = self._by_port[port.number]
        # Tear down BGP sessions to peers reached through the failed interface.
        for peer_ip in list(self.bgp.peers()):
            if interface.covers(peer_ip):
                self.bgp.peer_connection_lost(peer_ip, "interface down")

    def _handle_bfd_peer_down(self, peer_ip: IPv4Address, reason: str) -> None:
        # PIC routers repoint the shared adjacency to the precomputed backup
        # *before* the control plane reconverges — that is the whole point.
        if isinstance(self.fib, HierarchicalFib):
            backup = self._precomputed_backup_for(peer_ip)
            if backup is not None:
                self.repoint_next_hop(peer_ip, backup)
        super()._handle_bfd_peer_down(peer_ip, reason)

    def _precomputed_backup_for(self, failed_next_hop: IPv4Address) -> Optional[IPv4Address]:
        """Best alternative next hop for prefixes currently routed via the
        failed one (what PIC would have precomputed)."""
        for prefix in self.bgp.loc_rib.prefixes():
            ranking = self.bgp.loc_rib.ranking(prefix)
            if ranking and ranking[0].next_hop == failed_next_hop and len(ranking) > 1:
                return ranking[1].next_hop
        return None

    def __repr__(self) -> str:
        return f"Router({self.name}, asn={self.config.asn}, fib={len(self.fib)})"
