"""A complete BGP speaker.

:class:`BgpSpeaker` glues sessions, the Loc-RIB (the one store of learned
routes, ranked by the one decision ladder), the Adj-RIB-Outs and the
per-peer policy — a LOCAL_PREF to set, an export switch — together.
Routers, peers and the supercharged controller all embed a speaker; the
only difference between them is the set of hooks they register:

* a router registers a Loc-RIB listener that drives its FIB updater;
* the supercharged controller registers a listener that feeds the
  backup-group algorithm and *replaces* normal re-advertisement with
  next-hop-rewritten announcements towards the supercharged router.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import BgpMessage, UpdateMessage
from repro.bgp.rib import AdjRibOut, LocRib, RibChange, Route, RouteSource
from repro.bgp.session import BgpSession, BgpSessionState
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.sim.engine import Simulator


@dataclass
class PeerConfig:
    """Configuration of one BGP neighbor."""

    peer_ip: IPv4Address
    peer_asn: int
    #: LOCAL_PREF set on every route learned from this peer (``None``
    #: keeps the announced value): how R1 is "configured to prefer R2".
    local_pref: Optional[int] = None
    hold_time: float = 90.0
    #: When False the speaker never re-advertises routes to this peer
    #: (e.g. the monitoring sink sessions in the evaluation lab).
    advertise: bool = True


class BgpSpeaker:
    """BGP speaker with per-peer sessions, one Loc-RIB and per-peer policy.

    Parameters
    ----------
    sim:
        Simulator used by the underlying sessions.
    asn, router_id:
        The speaker's identity.
    transport:
        Callable ``(peer_ip, message) -> None`` that delivers a BGP message
        to the named peer.  Owners wire this to their data plane (router,
        controller) or to a direct in-process shortcut in unit tests.
    """

    def __init__(
        self,
        sim: Simulator,
        asn: int,
        router_id: IPv4Address,
        transport: Callable[[IPv4Address, BgpMessage], None],
    ) -> None:
        self._sim = sim
        self.asn = asn
        self.router_id = router_id
        self._transport = transport
        self.loc_rib = LocRib()
        self._peers: Dict[IPv4Address, PeerConfig] = {}
        self._sessions: Dict[IPv4Address, BgpSession] = {}
        #: One :class:`RouteSource` per peer session, shared by every route
        #: learned over it; built on the first announcement, dropped with
        #: the session.
        self._sources: Dict[IPv4Address, RouteSource] = {}
        self._adj_rib_out: Dict[IPv4Address, AdjRibOut] = {}
        self._rib_listeners: List[Callable[[RibChange, IPv4Address], None]] = []
        self._peer_down_listeners: List[Callable[[IPv4Address, str], None]] = []
        self._peer_up_listeners: List[Callable[[IPv4Address], None]] = []
        #: Locally originated routes (prefix -> attributes), re-announced to peers.
        self._local_routes: Dict[IPv4Prefix, PathAttributes] = {}
        #: When False, best-path changes are not automatically re-advertised;
        #: the supercharged controller disables it and advertises rewritten
        #: routes itself.
        self.auto_advertise = True
        self._telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        """Enable control-plane telemetry: per-update counters (cheap —
        update processing is hot during table loads, so no trace event is
        emitted per update), ``bgp.session_down`` trace events and the
        sessions' per-train coalescing metrics."""
        self._telemetry = telemetry
        for session in self._sessions.values():
            session.attach_telemetry(telemetry)

    # ------------------------------------------------------------------
    # Peer management
    # ------------------------------------------------------------------
    def add_peer(self, config: PeerConfig) -> BgpSession:
        """Configure a neighbor and create (but not start) its session."""
        if config.peer_ip in self._peers:
            raise ValueError(f"peer {config.peer_ip} is already configured")
        self._peers[config.peer_ip] = config
        self._adj_rib_out[config.peer_ip] = AdjRibOut(config.peer_ip)
        session = BgpSession(
            self._sim,
            local_asn=self.asn,
            local_router_id=self.router_id,
            peer_ip=config.peer_ip,
            send=lambda message, peer=config.peer_ip: self._transport(peer, message),
            hold_time=config.hold_time,
        )
        session.attach_telemetry(self._telemetry)
        session.on_established(self._session_established)
        session.on_down(self._session_down)
        session.on_update(self._session_update)
        self._sessions[config.peer_ip] = session
        return session

    def start(self) -> None:
        """Start every configured session."""
        for session in self._sessions.values():
            session.start()

    def start_peer(self, peer_ip: IPv4Address) -> None:
        """Start one session."""
        self._session_for(peer_ip).start()

    def peer_session(self, peer_ip: IPv4Address) -> BgpSession:
        """The session object for ``peer_ip`` (raises if unknown)."""
        return self._session_for(peer_ip)

    def peers(self) -> Iterable[IPv4Address]:
        """All configured peer addresses."""
        return self._peers.keys()

    def established_peers(self) -> List[IPv4Address]:
        """Peers whose session is currently established."""
        return [ip for ip, session in self._sessions.items() if session.is_established]

    # ------------------------------------------------------------------
    # Listeners
    # ------------------------------------------------------------------
    def on_rib_change(self, callback: Callable[[RibChange, IPv4Address], None]) -> None:
        """Register a Loc-RIB change listener ``(change, from_peer)``."""
        self._rib_listeners.append(callback)

    def on_peer_down(self, callback: Callable[[IPv4Address, str], None]) -> None:
        """Register a listener fired when an established peer goes down."""
        self._peer_down_listeners.append(callback)

    def on_peer_up(self, callback: Callable[[IPv4Address], None]) -> None:
        """Register a listener fired when a peer session establishes."""
        self._peer_up_listeners.append(callback)

    # ------------------------------------------------------------------
    # Local origination
    # ------------------------------------------------------------------
    def originate(self, prefix: IPv4Prefix, attributes: PathAttributes) -> None:
        """Originate a route locally and advertise it to all peers."""
        self._local_routes[prefix] = attributes
        for peer_ip in self._peers:
            self._advertise(peer_ip, prefix, attributes)

    def withdraw_origin(self, prefix: IPv4Prefix) -> None:
        """Withdraw a locally originated route from all peers."""
        if prefix not in self._local_routes:
            return
        del self._local_routes[prefix]
        for peer_ip in self._peers:
            self._withdraw(peer_ip, prefix)

    # ------------------------------------------------------------------
    # Direct advertisement (used by the supercharged controller)
    # ------------------------------------------------------------------
    def advertise_route(
        self, peer_ip: IPv4Address, prefix: IPv4Prefix, attributes: PathAttributes
    ) -> bool:
        """Announce a specific route to a specific peer, bypassing the
        automatic best-path propagation.  Duplicate announcements are
        suppressed via the Adj-RIB-Out; returns whether a message was sent."""
        return self._advertise(peer_ip, prefix, attributes)

    def withdraw_route(self, peer_ip: IPv4Address, prefix: IPv4Prefix) -> bool:
        """Withdraw a prefix from a specific peer (if it was advertised)."""
        return self._withdraw(peer_ip, prefix)

    # ------------------------------------------------------------------
    # Transport entry point
    # ------------------------------------------------------------------
    def deliver(self, peer_ip: IPv4Address, message: BgpMessage) -> None:
        """Deliver a message received from ``peer_ip`` (called by the owner)."""
        session = self._sessions.get(peer_ip)
        if session is None:
            return
        session.receive(message)

    def peer_connection_lost(self, peer_ip: IPv4Address, reason: str = "link down") -> None:
        """Signal a transport failure towards ``peer_ip``."""
        session = self._sessions.get(peer_ip)
        if session is not None:
            session.connection_lost(reason)

    # ------------------------------------------------------------------
    # Session callbacks
    # ------------------------------------------------------------------
    def _session_established(self, session: BgpSession) -> None:
        peer_ip = session.peer_ip
        config = self._peers[peer_ip]
        for callback in list(self._peer_up_listeners):
            callback(peer_ip)
        if not config.advertise:
            return
        # Initial table transfer: locally originated routes plus current best paths.
        for prefix, attributes in self._local_routes.items():
            self._advertise(peer_ip, prefix, attributes)
        if self.auto_advertise:
            for prefix in list(self.loc_rib.prefixes()):
                best = self.loc_rib.best(prefix)
                if best is not None and best.source.peer_ip != peer_ip:
                    self._advertise(peer_ip, prefix, best.attributes)

    def _session_down(self, session: BgpSession, reason: str) -> None:
        peer_ip = session.peer_ip
        if self._telemetry is not None:
            self._telemetry.counter("bgp.session_down").inc()
            self._telemetry.emit(
                "bgp.session_down", peer=str(peer_ip), reason=reason
            )
        for callback in list(self._peer_down_listeners):
            callback(peer_ip, reason)
        # Flush every route learned from the dead peer and propagate the
        # consequences (new best paths or withdraws) to the other peers.
        changes = self.loc_rib.withdraw_peer(peer_ip)
        self._sources.pop(peer_ip, None)
        # Forget what was advertised so a re-established session gets a
        # fresh initial table transfer.
        self._adj_rib_out[peer_ip] = AdjRibOut(peer_ip)
        for change in changes:
            self._notify_rib_change(change, peer_ip)
            if self.auto_advertise:
                self._propagate(change, from_peer=peer_ip)

    def _session_update(self, session: BgpSession, update: UpdateMessage) -> None:
        self.process_update(session.peer_ip, update)

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------
    def process_update(self, peer_ip: IPv4Address, update: UpdateMessage) -> Optional[RibChange]:
        """Run a received UPDATE through policy, the Loc-RIB and propagation.

        Exposed publicly so that controller benchmarks can measure the
        processing cost without a full session handshake.
        """
        config = self._peers[peer_ip]
        attributes = update.attributes
        if self._telemetry is not None:
            self._telemetry.counter(
                "bgp.withdraws_received" if attributes is None else "bgp.updates_received"
            ).inc()
        if attributes is None or attributes.as_path.contains(self.asn):
            # A withdraw — or an announcement whose path loops through us:
            # it replaces whatever the peer sent before (RFC 4271 §9) and
            # is itself unusable, so it withdraws too (RFC 7606).
            change = self.loc_rib.withdraw(update.prefix, peer_ip)
            if len(change.new_ranking) == len(change.old_ranking):
                return None  # the peer held no route for the prefix
        else:
            if config.local_pref is not None:
                attributes = attributes.with_local_pref(config.local_pref)
            source = self._sources.get(peer_ip)
            if source is None:
                source = self._sources[peer_ip] = RouteSource(
                    peer_ip=peer_ip,
                    peer_asn=config.peer_asn,
                    router_id=self._sessions[peer_ip].peer_router_id or peer_ip,
                    is_ebgp=config.peer_asn != self.asn,
                )
            route = Route(
                prefix=update.prefix,
                attributes=attributes,
                source=source,
                learned_at=self._sim.now,
            )
            change = self.loc_rib.update(route)
        self._notify_rib_change(change, peer_ip)
        if self.auto_advertise:
            self._propagate(change, from_peer=peer_ip)
        return change

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self, change: RibChange, from_peer: IPv4Address) -> None:
        if not change.best_changed:
            return
        for peer_ip, config in self._peers.items():
            if not config.advertise:
                continue
            if peer_ip == from_peer:
                continue
            if change.new_best is None:
                self._withdraw(peer_ip, change.prefix)
            elif change.new_best.source.peer_ip == peer_ip:
                # Never re-announce to the peer we learned the best path from.
                self._withdraw(peer_ip, change.prefix)
            else:
                self._advertise(peer_ip, change.prefix, change.new_best.attributes)

    def _advertise(
        self, peer_ip: IPv4Address, prefix: IPv4Prefix, attributes: PathAttributes
    ) -> bool:
        config = self._peers[peer_ip]
        session = self._sessions[peer_ip]
        if not session.is_established or not config.advertise:
            return False
        if config.peer_asn != self.asn:
            attributes = attributes.prepended(self.asn)
        if not self._adj_rib_out[peer_ip].record_announce(prefix, attributes):
            return False
        session.send_update(UpdateMessage.announce(prefix, attributes))
        return True

    def _withdraw(self, peer_ip: IPv4Address, prefix: IPv4Prefix) -> bool:
        session = self._sessions[peer_ip]
        if not session.is_established:
            return False
        if not self._adj_rib_out[peer_ip].record_withdraw(prefix):
            return False
        session.send_update(UpdateMessage.withdraw(prefix))
        return True

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _notify_rib_change(self, change: RibChange, peer_ip: IPv4Address) -> None:
        for callback in list(self._rib_listeners):
            callback(change, peer_ip)

    def _session_for(self, peer_ip: IPv4Address) -> BgpSession:
        if peer_ip not in self._sessions:
            raise KeyError(f"unknown peer {peer_ip}")
        return self._sessions[peer_ip]

    def __repr__(self) -> str:
        return f"BgpSpeaker(asn={self.asn}, router_id={self.router_id}, peers={len(self._peers)})"
