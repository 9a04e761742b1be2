"""ARP substrate: cache, request/reply protocol handling and the client.

The supercharged router resolves the controller's *virtual* next hops to
*virtual* MAC addresses through perfectly ordinary ARP; this package
provides the cache, the responder and the resolving client that every
:class:`~repro.net.host.Host` owns one of — the controller answers for
its virtual next hops by registering them in its responder.
"""

from repro.arp.cache import ArpCache, ArpCacheEntry
from repro.arp.client import ArpClient
from repro.arp.protocol import ArpHandler, build_arp_reply, build_arp_request

__all__ = [
    "ArpCache",
    "ArpCacheEntry",
    "ArpClient",
    "ArpHandler",
    "build_arp_reply",
    "build_arp_request",
]
