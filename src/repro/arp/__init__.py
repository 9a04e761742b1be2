"""ARP substrate: cache, request/reply protocol handling and the client.

The supercharged router resolves the controller's *virtual* next hops to
*virtual* MAC addresses through perfectly ordinary ARP; this package
provides the cache, the responder and the resolving client that every
:class:`~repro.net.host.Host` owns one of — the controller answers for
its virtual next hops by registering them in its responder.
"""
