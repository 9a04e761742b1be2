"""BFD manager: one session per monitored peer, shared configuration.

This is the FreeBFD-equivalent component of the supercharged controller:
it owns a session per peer of the supercharged router and exposes a single
"peer down" callback stream that the controller subscribes to.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.bfd.session import BfdSession
from repro.net.addresses import IPv4Address
from repro.net.packets import BfdControl
from repro.sim.engine import Simulator


class BfdManager:
    """Manages BFD sessions towards a set of peers."""

    def __init__(
        self,
        sim: Simulator,
        send: Callable[[IPv4Address, BfdControl], None],
        tx_interval: float = 0.015,
        detect_multiplier: int = 3,
    ) -> None:
        self._sim = sim
        self._send = send
        self.tx_interval = tx_interval
        self.detect_multiplier = detect_multiplier
        self._sessions: Dict[IPv4Address, BfdSession] = {}
        self._down_listeners: List[Callable[[IPv4Address, str], None]] = []
        self._up_listeners: List[Callable[[IPv4Address], None]] = []
        self._telemetry = None

    def attach_telemetry(self, telemetry) -> None:
        """Enable detection telemetry: ``bfd.down`` / ``bfd.up`` trace
        events (the *detect* stage of the convergence timeline) plus
        peer-transition counters."""
        self._telemetry = telemetry

    def add_peer(self, peer_ip: IPv4Address) -> BfdSession:
        """Create (and start) a session monitoring ``peer_ip``."""
        if peer_ip in self._sessions:
            raise ValueError(f"BFD session to {peer_ip} already exists")
        session = BfdSession(
            self._sim,
            send=lambda packet, peer=peer_ip: self._send(peer, packet),
            desired_min_tx_interval=self.tx_interval,
            required_min_rx_interval=self.tx_interval,
            detect_multiplier=self.detect_multiplier,
            name=str(peer_ip),
        )
        session.on_down(
            lambda _session, reason, peer=peer_ip: self._notify_down(peer, reason)
        )
        session.on_up(lambda _session, peer=peer_ip: self._notify_up(peer))
        self._sessions[peer_ip] = session
        session.start()
        return session

    def remove_peer(self, peer_ip: IPv4Address) -> bool:
        """Stop and remove the session for ``peer_ip``."""
        session = self._sessions.pop(peer_ip, None)
        if session is None:
            return False
        session.stop()
        return True

    def session(self, peer_ip: IPv4Address) -> Optional[BfdSession]:
        """The session towards ``peer_ip``, if configured."""
        return self._sessions.get(peer_ip)

    def peers(self) -> List[IPv4Address]:
        """All monitored peers."""
        return list(self._sessions.keys())

    def receive(self, peer_ip: IPv4Address, packet: BfdControl) -> None:
        """Deliver a control packet received from ``peer_ip``."""
        session = self._sessions.get(peer_ip)
        if session is not None:
            session.receive(packet)

    def on_peer_down(self, callback: Callable[[IPv4Address, str], None]) -> None:
        """Register a failure listener."""
        self._down_listeners.append(callback)

    def on_peer_up(self, callback: Callable[[IPv4Address], None]) -> None:
        """Register a liveness listener."""
        self._up_listeners.append(callback)

    def _notify_down(self, peer_ip: IPv4Address, reason: str) -> None:
        if self._telemetry is not None:
            self._telemetry.counter("bfd.peer_down").inc()
            self._telemetry.emit("bfd.down", peer=str(peer_ip), reason=reason)
        for callback in list(self._down_listeners):
            callback(peer_ip, reason)

    def _notify_up(self, peer_ip: IPv4Address) -> None:
        if self._telemetry is not None:
            self._telemetry.counter("bfd.peer_up").inc()
            self._telemetry.emit("bfd.up", peer=str(peer_ip))
        for callback in list(self._up_listeners):
            callback(peer_ip)
