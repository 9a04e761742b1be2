"""ARP client: resolve neighbour IPs to MACs, queueing work until resolved.

Every :class:`~repro.net.host.Host` owns one.  The supercharged router
resolves the controller's virtual next hops with exactly this machinery —
from the router's point of view a VNH is just another neighbor on the
connected subnet.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.arp.cache import ArpCache
from repro.arp.protocol import build_arp_request
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.interfaces import Interface
from repro.net.packets import ArpOp, ArpPacket
from repro.sim.engine import Simulator

#: Seconds between two requests for the same unresolved address.
RETRY_INTERVAL = 1.0
#: Requests sent for one address before its waiters are told it failed.
MAX_RETRIES = 3


class ArpClient:
    """Per-host ARP resolution with pending-callback queues and retries."""

    def __init__(self, sim: Simulator, cache: ArpCache) -> None:
        self._sim = sim
        self._cache = cache
        self._pending: Dict[IPv4Address, List[Callable[[Optional[MacAddress]], None]]] = {}
        self._attempts: Dict[IPv4Address, int] = {}
        self.requests_sent = 0

    def resolve(
        self,
        ip: IPv4Address,
        interface: Interface,
        callback: Callable[[Optional[MacAddress]], None],
    ) -> None:
        """Resolve ``ip`` on ``interface``; the callback receives the MAC or
        ``None`` after :data:`MAX_RETRIES` unanswered requests."""
        cached = self._cache.lookup(ip, self._sim.now)
        if cached is not None:
            callback(cached)
            return
        queue = self._pending.setdefault(ip, [])
        queue.append(callback)
        if len(queue) == 1:
            self._attempts[ip] = 0
            self._send_request(ip, interface)

    def handle_reply(self, packet: ArpPacket) -> None:
        """Feed a received ARP packet (reply *or* request) into the client;
        any pending resolutions for the sender IP complete."""
        if packet.op not in (ArpOp.REPLY, ArpOp.REQUEST):
            return
        self._cache.learn(packet.sender_ip, packet.sender_mac, self._sim.now)
        waiting = self._pending.pop(packet.sender_ip, [])
        self._attempts.pop(packet.sender_ip, None)
        for callback in waiting:
            callback(packet.sender_mac)

    def _send_request(self, ip: IPv4Address, interface: Interface) -> None:
        if ip not in self._pending:
            return
        attempts = self._attempts.get(ip, 0)
        if attempts >= MAX_RETRIES:
            waiting = self._pending.pop(ip, [])
            self._attempts.pop(ip, None)
            for callback in waiting:
                callback(None)
            return
        self._attempts[ip] = attempts + 1
        self.requests_sent += 1
        frame = build_arp_request(
            sender_mac=interface.mac,
            sender_ip=interface.ip,
            target_ip=ip,
        )
        interface.port.send(frame)
        self._sim.schedule(
            RETRY_INTERVAL, lambda: self._send_request(ip, interface), name="arp-retry"
        )
