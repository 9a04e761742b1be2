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

The unit of work is the UPDATE train (a lone UPDATE is a train of one):
one Loc-RIB pass over a sub-train's members, one call per listener with
the resulting :class:`RibChange` list, one batched advertisement per peer.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import BgpMessage, UpdateMessage
from repro.bgp.rib import AdjRibOut, LocRib, RibChange, Route, RouteSource
from repro.bgp.session import SUB_TRAIN, BgpSession
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.sim.engine import Simulator

#: What is advertised for a prefix: its attributes, or ``None`` to withdraw it.
Advertisement = Tuple[IPv4Prefix, Optional[PathAttributes]]
#: A Loc-RIB listener: ``(changes, from_peer)``, changes in arrival order.
RibListener = Callable[[List[RibChange], IPv4Address], None]


class PeerConfig(NamedTuple):
    """Configuration of one BGP neighbor."""

    peer_ip: IPv4Address
    peer_asn: int
    #: LOCAL_PREF set on every route learned from this peer (``None``
    #: keeps the announced value): how R1 is "configured to prefer R2".
    local_pref: Optional[int] = None
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
        self._rib_listeners: List[RibListener] = []
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
        )
        session.attach_telemetry(self._telemetry)
        session.on_established(self._session_established)
        session.on_down(self._session_down)
        session.on_update(self._session_updates)
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
    def on_rib_change(self, callback: RibListener) -> None:
        """Register a Loc-RIB change listener ``(changes, from_peer)``: it
        is called once per processed sub-train (or session loss slice)
        with the non-empty list of changes it caused, in order."""
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
        self.originate_many(((prefix, attributes),))

    def originate_many(self, routes: Sequence[Tuple[IPv4Prefix, PathAttributes]]) -> None:
        """Originate ``(prefix, attributes)`` routes, in order, as one
        advertisement batch per peer (a whole feed in one call)."""
        self._local_routes.update(routes)
        for peer_ip in self._peers:
            self.advertise_routes(peer_ip, routes)

    def withdraw_origin(self, prefix: IPv4Prefix) -> None:
        """Withdraw a locally originated route from all peers; with
        ``auto_advertise`` on, a learned best path for the prefix is
        advertised in its place."""
        if self._local_routes.pop(prefix, None) is None:
            return
        best = self.loc_rib.best(prefix) if self.auto_advertise else None
        self._propagate_to_peers([(prefix, best)])

    # ------------------------------------------------------------------
    # Direct advertisement (used by the supercharged controller)
    # ------------------------------------------------------------------
    def advertise_routes(
        self, peer_ip: IPv4Address, routes: Iterable[Advertisement]
    ) -> Tuple[int, int]:
        """Announce (attributes) or withdraw (``None``) each prefix to one
        peer, in order — the one path to a peer's Adj-RIB-Out and socket.
        Duplicate announcements and withdraws of what was never advertised
        are suppressed; the rest leaves as one batch.  Returns how many
        ``(announcements, withdraws)`` were sent."""
        config = self._peers[peer_ip]
        session = self._sessions[peer_ip]
        if not session.is_established or not config.advertise:
            return 0, 0
        prepend = config.peer_asn != self.asn
        advertised = self._adj_rib_out[peer_ip]
        updates: List[UpdateMessage] = []
        withdraws = 0
        for prefix, attributes in routes:
            if attributes is None:
                if advertised.record_withdraw(prefix):
                    updates.append(UpdateMessage(prefix, None))
                    withdraws += 1
                continue
            if prepend:
                attributes = attributes.prepended(self.asn)
            if advertised.record_announce(prefix, attributes):
                updates.append(UpdateMessage(prefix, attributes))
        session.send_updates(updates)
        return len(updates) - withdraws, withdraws

    def advertise_route(
        self, peer_ip: IPv4Address, prefix: IPv4Prefix, attributes: PathAttributes
    ) -> bool:
        """Announce a specific route to a specific peer, bypassing the
        automatic best-path propagation; returns whether a message was sent."""
        return self.advertise_routes(peer_ip, ((prefix, attributes),))[0] == 1

    def withdraw_route(self, peer_ip: IPv4Address, prefix: IPv4Prefix) -> bool:
        """Withdraw a prefix from a specific peer (if it was advertised)."""
        return self.advertise_routes(peer_ip, ((prefix, None),))[1] == 1

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
        # Initial table transfer: locally originated routes plus the best
        # paths of every other prefix.
        local = self._local_routes
        table: List[Advertisement] = list(local.items())
        if self.auto_advertise:
            best = self.loc_rib.best
            table.extend(
                (prefix, best(prefix).attributes)
                for prefix in self.loc_rib.prefixes()
                if prefix not in local and best(prefix).source.peer_ip != peer_ip
            )
        self.advertise_routes(peer_ip, table)

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
        for start in range(0, len(changes), SUB_TRAIN):
            self._deliver_changes(changes[start:start + SUB_TRAIN], peer_ip)

    def _session_updates(self, session: BgpSession, updates: Sequence[UpdateMessage]) -> None:
        self._process_updates(session.peer_ip, updates)

    # ------------------------------------------------------------------
    # Update processing
    # ------------------------------------------------------------------
    def process_update(self, peer_ip: IPv4Address, update: UpdateMessage) -> Optional[RibChange]:
        """Run one received UPDATE — a train of one — through policy, the
        Loc-RIB and propagation; returns its change (``None`` for a
        withdraw of nothing).

        Exposed publicly so that controller benchmarks can measure the
        processing cost without a full session handshake.
        """
        changes = self._process_updates(peer_ip, (update,))
        return changes[0] if changes else None

    def _process_updates(
        self, peer_ip: IPv4Address, updates: Sequence[UpdateMessage]
    ) -> List[RibChange]:
        """One pass over a sub-train's members, then one listener call
        and one propagation for the changes they caused."""
        config = self._peers[peer_ip]
        local_pref = config.local_pref
        asn = self.asn
        loc_rib = self.loc_rib
        source = self._sources.get(peer_ip)
        now = self._sim.now
        changes: List[RibChange] = []
        withdraws = 0
        for update in updates:
            attributes = update.attributes
            if attributes is None:
                withdraws += 1
            if attributes is None or attributes.as_path.contains(asn):
                # A withdraw — or an announcement whose path loops through us:
                # it replaces whatever the peer sent before (RFC 4271 §9) and
                # is itself unusable, so it withdraws too (RFC 7606).
                change = loc_rib.withdraw(update.prefix, peer_ip)
                if len(change.new_ranking) == len(change.old_ranking):
                    continue  # the peer held no route for the prefix
            else:
                if local_pref is not None:
                    attributes = attributes.with_local_pref(local_pref)
                if source is None:
                    source = self._sources[peer_ip] = RouteSource(
                        peer_ip=peer_ip,
                        peer_asn=config.peer_asn,
                        router_id=self._sessions[peer_ip].peer_router_id or peer_ip,
                        is_ebgp=config.peer_asn != asn,
                    )
                change = loc_rib.update(Route(update.prefix, attributes, source, now))
            changes.append(change)
        if self._telemetry is not None:
            if withdraws:
                self._telemetry.counter("bgp.withdraws_received").inc(withdraws)
            if len(updates) > withdraws:
                self._telemetry.counter("bgp.updates_received").inc(len(updates) - withdraws)
        if changes:
            self._deliver_changes(changes, peer_ip)
        return changes

    def _deliver_changes(self, changes: List[RibChange], from_peer: IPv4Address) -> None:
        for callback in list(self._rib_listeners):
            callback(changes, from_peer)
        if self.auto_advertise:
            self._propagate(changes)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def _propagate(self, changes: List[RibChange]) -> None:
        moved = [(c.prefix, c.new_best) for c in changes if c.best_changed]
        local = self._local_routes
        if local:
            # What a speaker exports for a prefix it originates is the
            # origination, whatever it learns for it.
            moved = [(prefix, best) for prefix, best in moved if prefix not in local]
        if moved:
            self._propagate_to_peers(moved)

    def _propagate_to_peers(self, moved: List[Tuple[IPv4Prefix, Optional[Route]]]) -> None:
        for peer_ip in self._peers:
            # The peer a best path was learned from hears a withdraw (of
            # whatever it was told before), never its own route back.
            self.advertise_routes(
                peer_ip,
                (
                    (prefix, None if best is None or best.source.peer_ip == peer_ip
                     else best.attributes)
                    for prefix, best in moved
                ),
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _session_for(self, peer_ip: IPv4Address) -> BgpSession:
        if peer_ip not in self._sessions:
            raise KeyError(f"unknown peer {peer_ip}")
        return self._sessions[peer_ip]

    def __repr__(self) -> str:
        return f"BgpSpeaker(asn={self.asn}, router_id={self.router_id}, peers={len(self._peers)})"
