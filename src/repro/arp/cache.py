"""ARP cache with ageing.

Dynamic entries expire after :data:`ARP_LIFETIME`; expired entries are
pruned lazily on lookup, so no timers are needed.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional

from repro.net.addresses import IPv4Address, MacAddress

#: Seconds a dynamically learned binding stays valid (20 minutes).
ARP_LIFETIME = 1200.0


class ArpCacheEntry(NamedTuple):
    """One resolved IP → MAC binding."""

    ip: IPv4Address
    mac: MacAddress
    learned_at: float
    static: bool = False

    def is_expired(self, now: float) -> bool:
        """Whether the entry is stale (static entries never expire)."""
        if self.static:
            return False
        return (now - self.learned_at) > ARP_LIFETIME


class ArpCache:
    """IP → MAC cache with lazy expiry."""

    def __init__(self) -> None:
        self._entries: Dict[IPv4Address, ArpCacheEntry] = {}

    def learn(
        self, ip: IPv4Address, mac: MacAddress, now: float, static: bool = False
    ) -> None:
        """Insert or refresh a binding.

        A dynamic learn never demotes a static entry: a configured
        neighbour keeps its MAC and stays exempt from ageing however many
        ARP packets it sends (every one of them is learned from).
        """
        if not static:
            existing = self._entries.get(ip)
            if existing is not None and existing.static:
                return
        self._entries[ip] = ArpCacheEntry(ip=ip, mac=mac, learned_at=now, static=static)

    def lookup(self, ip: IPv4Address, now: float) -> Optional[MacAddress]:
        """Resolve ``ip``; expired entries are removed and report a miss."""
        entry = self._entries.get(ip)
        if entry is None:
            return None
        if entry.is_expired(now):
            del self._entries[ip]
            return None
        return entry.mac

    def __contains__(self, ip: IPv4Address) -> bool:
        return ip in self._entries
