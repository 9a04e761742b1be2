"""The supercharged controller node.

A :class:`SuperchargedController` is a :class:`~repro.net.host.Host`
attached to the SDN switch that plays three roles simultaneously:

* **BGP controller** (ExaBGP in the paper): it terminates the BGP sessions
  of the supercharged router's peers, runs the full decision process,
  computes backup groups, and relays every route to the router with the
  next hop rewritten to the group's virtual next hop.
* **SDN controller** (Floodlight): it provisions the switch rule of every
  backup group through a REST-style static flow pusher, answers the
  router's ARP queries for virtual next hops (each VNH → VMAC binding is
  one more address its ARP responder owns), and rewrites the rules on
  failure (Listing 2).
* **Failure detector** (FreeBFD): it runs BFD towards every peer and
  triggers data-plane convergence the instant a peer is declared down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.bfd.manager import BfdManager
from repro.bgp.rib import RibChange, Route
from repro.bgp.speaker import Advertisement, BgpSpeaker, PeerConfig
from repro.core.backup_groups import ActionKind, BackupGroupManager, ProvisioningAction
from repro.core.convergence import DataPlaneConvergence
from repro.core.flow_provisioner import FlowProvisioner, NextHopLocation
from repro.core.rest_api import FloodlightRestApi
from repro.core.vnh_allocator import VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.host import Host
from repro.net.links import Port
from repro.net.packets import EthernetFrame
from repro.sim.engine import Simulator
from repro.telemetry.process import sample_scale_gauges

if TYPE_CHECKING:
    from repro.openflow.controller_channel import ControllerChannel
    from repro.supercharge.engine import RemoteRepointEngine


class PeerSpec(NamedTuple):
    """One upstream peer of the supercharged router, as the controller sees it."""

    ip: IPv4Address
    asn: int
    switch_port: int
    #: Configured MAC (a static neighbour); ``None`` leaves it to ARP.
    mac: Optional[MacAddress] = None
    #: Import preference (higher wins); the paper prefers the cheap provider.
    local_pref: int = 100


class ControllerConfig(NamedTuple):
    """Configuration of a supercharged controller instance."""

    ip: IPv4Address
    mac: MacAddress
    subnet: IPv4Prefix
    asn: int
    router_id: IPv4Address
    #: The supercharged router's address and ASN.
    router_ip: IPv4Address = IPv4Address("10.0.0.1")
    router_asn: int = 65000
    #: Pool virtual next hops are allocated from (inside ``subnet``).
    vnh_pool: IPv4Prefix = IPv4Prefix("10.0.0.128/25")
    peers: Sequence[PeerSpec] = ()
    #: BFD timing towards the peers.
    bfd_interval: float = 0.03
    bfd_multiplier: int = 3
    #: Latency of one REST call to the SDN controller platform.
    rest_latency: float = 2e-3
    #: Remote supercharge: plan shared-fate remote groups and absorb
    #: remote withdraws / next-hop shifts with O(#groups) flow-mods
    #: instead of per-prefix re-announcements.
    remote_groups: bool = False
    #: How long the repoint engine lets a remote churn burst accumulate
    #: before flushing (seconds); must comfortably cover one provider's
    #: withdraw burst propagation, and stay far below FIB-download time.
    remote_holddown: float = 1e-3


class SuperchargedController(Host):
    """The complete supercharged controller (ExaBGP + Floodlight + BFD roles)."""

    def __init__(self, sim: Simulator, name: str, config: ControllerConfig) -> None:
        super().__init__(sim, name)
        self.config = config
        self.interface = self.add_interface("eth0", config.mac, config.ip, config.subnet)
        for peer in config.peers:
            if peer.mac is not None:
                self.add_static_neighbor(peer.ip, peer.mac)
        reserved = {config.ip, config.router_ip} | {peer.ip for peer in config.peers}
        self.allocator = VnhAllocator(config.vnh_pool, reserved=reserved)
        if config.remote_groups:
            from repro.supercharge.planner import RemoteGroupPlanner

            self.backup_groups: BackupGroupManager = RemoteGroupPlanner(self.allocator)
        else:
            self.backup_groups = BackupGroupManager(self.allocator)
        self.remote_engine: Optional[RemoteRepointEngine] = None
        self.bgp = BgpSpeaker(
            sim,
            asn=config.asn,
            router_id=config.router_id,
            transport=self._send_bgp,
        )
        self.bgp.auto_advertise = False
        self.bgp.on_rib_change(self._handle_rib_changes)
        self.bfd = BfdManager(
            sim,
            send=self._send_bfd,
            tx_interval=config.bfd_interval,
            detect_multiplier=config.bfd_multiplier,
        )
        self.bfd.on_peer_down(self._handle_bfd_peer_down)
        self.bfd.on_peer_up(self._handle_bfd_peer_up)
        self._peer_specs: Dict[IPv4Address, PeerSpec] = {p.ip: p for p in config.peers}
        self._channel: Optional[ControllerChannel] = None
        self.rest_api: Optional[FloodlightRestApi] = None
        self.provisioner: Optional[FlowProvisioner] = None
        self.convergence: Optional[DataPlaneConvergence] = None
        self.updates_relayed = 0
        self.withdraws_relayed = 0
        self._started = False
        self._crashed = False
        self._telemetry = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @property
    def port(self) -> Port:
        """The controller's data-plane port (for wiring to the switch)."""
        return self.interface.port

    def attach_switch(self, channel: ControllerChannel) -> None:
        """Connect the OpenFlow channel towards the supercharging switch."""
        self._channel = channel
        channel.connect_controller(self._handle_switch_message)
        self.rest_api = FloodlightRestApi(
            self._sim, channel, call_latency=self.config.rest_latency
        )
        self.provisioner = FlowProvisioner(self.rest_api, self._locate_next_hop)
        self.convergence = DataPlaneConvergence(
            self.backup_groups, self.provisioner, peer_alive=self._peer_alive
        )
        if self.config.remote_groups:
            from repro.supercharge.engine import RemoteRepointEngine

            # The engine's jitter comes from a private fork of the seeded
            # stream: enabling remote groups must not shift any other
            # random draw, so A/B campaigns stay byte-comparable.
            self.remote_engine = RemoteRepointEngine(
                self._sim,
                self.backup_groups,
                self.provisioner,
                peer_alive=self._peer_alive,
                apply_actions=self._apply_actions,
                holddown=self.config.remote_holddown,
                rng=self._sim.random.fork(f"remote:{self.name}"),
            )

    def attach_telemetry(self, telemetry) -> None:
        """Enable observability for this controller and every subcomponent
        it owns (BGP speaker, BFD manager, flow provisioner, OpenFlow
        channel, remote repoint engine).  Call after :meth:`attach_switch`
        so the data-plane components exist; sampling is low-frequency
        (failover and flush time), never per RIB change."""
        self._telemetry = telemetry
        self.bgp.attach_telemetry(telemetry)
        self.bfd.attach_telemetry(telemetry)
        if self.provisioner is not None:
            self.provisioner.attach_telemetry(telemetry)
        if self._channel is not None:
            self._channel.attach_telemetry(telemetry)
        if self.remote_engine is not None:
            self.remote_engine.attach_telemetry(telemetry)

    def sample_occupancy(self) -> None:
        """Record the group-count and VNH-pool occupancy gauges *now*.

        Kept explicit (called at failover time and by the scenario lab at
        record time) because ``group_count`` walks the group table — doing
        that per RIB change would be quadratic during table loads."""
        if self._telemetry is None:
            return
        self._telemetry.gauge("controller.group_count").set(self.group_count())
        self._telemetry.gauge("controller.vnh_occupancy").set(
            self.allocator.allocated_count
        )
        # Scale gauges: table size, planner domains (one per in-process
        # controller; sharded builds overwrite with their shard count),
        # and peak process RSS (wall-clock; never exported byte-stably).
        sample_scale_gauges(
            self._telemetry,
            rib_prefixes=len(self.bgp.loc_rib),
            shard_count=1,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Configure BGP/BFD sessions and bring the control plane up."""
        if self._started:
            return
        if self.convergence is None:
            raise RuntimeError(f"{self.name}: attach_switch() must be called before start()")
        self._started = True
        for peer in self.config.peers:
            self.bgp.add_peer(
                PeerConfig(peer_ip=peer.ip, peer_asn=peer.asn, local_pref=peer.local_pref)
            )
            self.bfd.add_peer(peer.ip)
        self.bgp.add_peer(
            PeerConfig(peer_ip=self.config.router_ip, peer_asn=self.config.router_asn)
        )
        self.bgp.start()

    def shutdown(self) -> None:
        """Crash the controller: it stops reacting to any input, each
        established BGP session sends a Cease NOTIFICATION as it closes (so
        its peers drop the controller's routes at once), and its BFD
        sessions stop transmitting (peers notice via their detection
        timers).  Used by the reliability experiments."""
        if self._crashed:
            return
        self._crashed = True
        if self.remote_engine is not None:
            self.remote_engine.shutdown()
        for peer_ip in list(self.bgp.peers()):
            self.bgp.peer_session(peer_ip).stop("controller crashed")
        for peer_ip in list(self.bfd.peers()):
            self.bfd.remove_peer(peer_ip)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def group_count(self) -> int:
        """Number of live backup groups."""
        return len(self.backup_groups.groups())

    def vnh_bindings(self) -> Dict[IPv4Address, MacAddress]:
        """All VNH → VMAC bindings currently answered for."""
        bindings = self._arp_handler.bindings()
        del bindings[self.config.ip]
        return bindings

    # ------------------------------------------------------------------
    # RIB change -> provisioning (Listing 1 driver)
    # ------------------------------------------------------------------
    def _handle_rib_changes(self, changes: List[RibChange], from_peer: IPv4Address) -> None:
        if self._crashed:
            return
        if from_peer == self.config.router_ip:
            # Routes learned from the supercharged router itself are not
            # re-provisioned back to it.
            return
        planner = self.remote_engine if self.remote_engine is not None else self.backup_groups
        process = planner.process_change
        # A relayed route is the best path *of the change that asked for
        # it*: the Loc-RIB has already applied the whole train, and a
        # later member may have replaced or withdrawn the prefix again.
        self._provision(
            [(action, change.new_best) for change in changes for action in process(change)]
        )

    def _apply_actions(self, actions: List[ProvisioningAction]) -> None:
        """Actions no change asked for (the engine's flush fallbacks):
        they relay whatever is best now, when the holddown ends."""
        best = self.bgp.loc_rib.best
        self._provision([(action, best(action.prefix)) for action in actions])

    def _provision(self, actions: List[Tuple[ProvisioningAction, Optional[Route]]]) -> None:
        """Apply ``(action, best path to relay)`` pairs in order.  Announce
        and withdraw actions gather into one batched advertisement to the
        router, sent before any group action so that every event is
        scheduled in the order one-by-one application would schedule it."""
        relay: List[Advertisement] = []
        index = 0
        count = len(actions)
        while index < count:
            action, best = actions[index]
            kind = action.kind
            if kind is ActionKind.GROUP_CREATED:
                # Batch a run of consecutive group creations into one REST
                # call (one flow-mod bundle on the switch).
                self._relay(relay)
                run: List = []
                while index < count and actions[index][0].kind is ActionKind.GROUP_CREATED:
                    group = actions[index][0].group
                    self._arp_handler.register(group.vnh, group.vmac)
                    run.append(group)
                    index += 1
                if self.provisioner is not None:
                    self.provisioner.provision_groups(run)
                continue
            index += 1
            if kind is ActionKind.WITHDRAW:
                relay.append((action.prefix, None))
                self.withdraws_relayed += 1
            elif best is not None:  # ANNOUNCE_VIRTUAL / ANNOUNCE_REAL
                relay.append((action.prefix, best.attributes.with_next_hop(action.next_hop)))
        self._relay(relay)

    def _relay(self, routes: List[Advertisement]) -> None:
        """Advertise (and forget) what has gathered for the router."""
        if routes:
            self.updates_relayed += self.bgp.advertise_routes(self.config.router_ip, routes)[0]
            routes.clear()

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _handle_bfd_peer_down(self, peer_ip: IPv4Address, reason: str) -> None:
        if self._crashed:
            return
        # Data plane first (Listing 2), control plane second: this ordering
        # is the entire point of the paper.
        event = None
        if self.convergence is not None:
            event = self.convergence.peer_down(peer_ip, now=self._sim.now)
        super()._handle_bfd_peer_down(peer_ip, reason)
        if event is not None and self._telemetry is not None:
            self._telemetry.counter("controller.failovers").inc()
            self._telemetry.emit(
                "ctrl.failover",
                controller=self.name,
                peer=str(peer_ip),
                groups_redirected=event.groups_redirected,
                groups_unprotected=event.groups_unprotected,
            )
            self.sample_occupancy()

    def _handle_bfd_peer_up(self, peer_ip: IPv4Address) -> None:
        if self._crashed:
            return
        # Point the groups whose primary is this peer back at it: the peer is
        # reachable again and remains the operator's preferred exit.  The
        # control plane catches up separately when its BGP session reopens.
        if self.convergence is not None:
            self.convergence.peer_restored(peer_ip, now=self._sim.now)
            if self._telemetry is not None:
                self._telemetry.counter("controller.recoveries").inc()
                self._telemetry.emit(
                    "ctrl.peer_restored", controller=self.name, peer=str(peer_ip)
                )

    # ------------------------------------------------------------------
    # Switch / data-plane frame handling
    # ------------------------------------------------------------------
    def _handle_switch_message(self, message: object) -> None:
        """A port-status notification changes nothing here: BFD detects a
        dead peer first.  The subscription stays all the same, so every
        notification is one delivery event on the simulator's clock."""

    def _handle_frame(self, frame: EthernetFrame, port: Port) -> None:
        if not self._crashed:
            super()._handle_frame(frame, port)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _peer_alive(self, peer_ip: IPv4Address) -> bool:
        """Whether the controller's failure detector considers the peer
        usable as a failover target (unknown addresses are not)."""
        session = self.bfd.session(peer_ip)
        if session is not None:
            return session.is_up
        return peer_ip in self._peer_specs

    def _locate_next_hop(self, next_hop: IPv4Address) -> Optional[NextHopLocation]:
        spec = self._peer_specs.get(next_hop)
        if spec is None:
            return None
        mac = self.arp_cache.lookup(next_hop, self._sim.now)
        if mac is None:
            return None
        return NextHopLocation(mac=mac, switch_port=spec.switch_port)

    def __repr__(self) -> str:
        return f"SuperchargedController({self.name}, groups={self.group_count()})"
