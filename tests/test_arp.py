"""Tests for the ARP cache, protocol handler and client."""

from repro.arp.cache import ARP_LIFETIME, ArpCache
from repro.arp.client import MAX_RETRIES, RETRY_INTERVAL, ArpClient
from repro.arp.protocol import ArpHandler, build_arp_reply, build_arp_request
from repro.net.addresses import BROADCAST_MAC, IPv4Address, IPv4Prefix, MacAddress
from repro.net.interfaces import Interface
from repro.net.links import Link, Port
from repro.net.packets import ArpOp

IP_A = IPv4Address("10.0.0.1")
IP_B = IPv4Address("10.0.0.2")
MAC_A = MacAddress("00:00:00:00:00:0a")
MAC_B = MacAddress("00:00:00:00:00:0b")


class TestArpCache:
    def test_learn_and_lookup(self):
        cache = ArpCache()
        cache.learn(IP_B, MAC_B, now=0.0)
        assert cache.lookup(IP_B, now=1.0) == MAC_B

    def test_expiry(self):
        cache = ArpCache()
        cache.learn(IP_B, MAC_B, now=0.0)
        assert cache.lookup(IP_B, now=ARP_LIFETIME) == MAC_B
        assert cache.lookup(IP_B, now=ARP_LIFETIME + 1.0) is None
        assert IP_B not in cache

    def test_static_entries_never_expire(self):
        cache = ArpCache()
        cache.learn(IP_B, MAC_B, now=0.0, static=True)
        assert cache.lookup(IP_B, now=1e6) == MAC_B

    def test_dynamic_learn_never_demotes_a_static_entry(self):
        """Regression: every received ARP packet is learned from, so the
        first one a configured neighbour sent used to turn "never expires"
        into "expires after ``ARP_LIFETIME``" (and could replace its MAC)."""
        cache = ArpCache()
        cache.learn(IP_B, MAC_B, now=0.0, static=True)
        cache.learn(IP_B, MAC_A, now=1.0)
        assert cache.lookup(IP_B, now=1e6) == MAC_B
        handler = ArpHandler(cache, now=lambda: 2.0)
        handler.handle(build_arp_request(MAC_B, IP_B, IP_A).payload)
        assert cache.lookup(IP_B, now=1e6) == MAC_B
        # Re-configuring the neighbour is not a dynamic learn.
        cache.learn(IP_B, MAC_A, now=3.0, static=True)
        assert cache.lookup(IP_B, now=1e6) == MAC_A

    def test_refresh_resets_age(self):
        cache = ArpCache()
        cache.learn(IP_B, MAC_B, now=0.0)
        cache.learn(IP_B, MAC_B, now=ARP_LIFETIME - 1.0)
        assert cache.lookup(IP_B, now=ARP_LIFETIME + 5.0) == MAC_B


class TestArpProtocol:
    def test_request_is_broadcast(self):
        frame = build_arp_request(MAC_A, IP_A, IP_B)
        assert frame.dst_mac == BROADCAST_MAC
        assert frame.payload.op is ArpOp.REQUEST
        assert frame.payload.target_ip == IP_B

    def test_reply_is_unicast(self):
        frame = build_arp_reply(MAC_B, IP_B, MAC_A, IP_A)
        assert frame.dst_mac == MAC_A
        assert frame.payload.op is ArpOp.REPLY

    def test_handler_answers_for_owned_ip(self):
        cache = ArpCache()
        handler = ArpHandler(cache, now=lambda: 0.0)
        handler.register(IP_B, MAC_B)
        request = build_arp_request(MAC_A, IP_A, IP_B).payload
        reply = handler.handle(request)
        assert reply is not None
        assert reply.payload.sender_mac == MAC_B
        assert reply.dst_mac == MAC_A
        assert handler.requests_answered == 1

    def test_handler_ignores_unowned_ip(self):
        handler = ArpHandler(ArpCache(), now=lambda: 0.0)
        request = build_arp_request(MAC_A, IP_A, IP_B).payload
        assert handler.handle(request) is None

    def test_handler_learns_sender_binding(self):
        cache = ArpCache()
        handler = ArpHandler(cache, now=lambda: 0.0)
        handler.handle(build_arp_request(MAC_A, IP_A, IP_B).payload)
        assert cache.lookup(IP_A, now=0.0) == MAC_A

    def test_register(self):
        handler = ArpHandler(ArpCache(), now=lambda: 0.0)
        assert IP_B not in handler.bindings()
        handler.register(IP_B, MAC_B)
        assert handler.bindings()[IP_B] == MAC_B


class TestArpClient:
    def _wired(self, sim):
        """An ARP client on one side and a responder host on the other."""
        client_port = Port("client", 0)
        responder_port = Port("responder", 0)
        Link(sim, client_port, responder_port, latency=0.001)
        interface = Interface(
            "eth0", client_port, MAC_A, IP_A, IPv4Prefix("10.0.0.0/24")
        )
        cache = ArpCache()
        client = ArpClient(sim, cache)

        responder_handler = ArpHandler(ArpCache(), now=lambda: sim.now)
        responder_handler.register(IP_B, MAC_B)

        def respond(frame, port):
            reply = responder_handler.handle(frame.payload)
            if reply is not None:
                port.send(reply)

        responder_port.set_frame_handler(respond)
        client_port.set_frame_handler(lambda frame, port: client.handle_reply(frame.payload))
        return client, interface

    def test_resolution_roundtrip(self, sim):
        client, interface = self._wired(sim)
        results = []
        client.resolve(IP_B, interface, results.append)
        sim.run(until=1.0)
        assert results == [MAC_B]
        assert client.requests_sent == 1

    def test_cached_resolution_is_immediate(self, sim):
        client, interface = self._wired(sim)
        client.resolve(IP_B, interface, lambda mac: None)
        sim.run(until=1.0)
        results = []
        client.resolve(IP_B, interface, results.append)
        assert results == [MAC_B]
        assert client.requests_sent == 1

    def test_multiple_waiters_share_one_request(self, sim):
        client, interface = self._wired(sim)
        results = []
        client.resolve(IP_B, interface, results.append)
        client.resolve(IP_B, interface, results.append)
        sim.run(until=1.0)
        assert results == [MAC_B, MAC_B]
        assert client.requests_sent == 1

    def test_unanswered_resolution_gives_up(self, sim):
        client, interface = self._wired(sim)
        results = []
        missing = IPv4Address("10.0.0.77")
        client.resolve(missing, interface, results.append)
        sim.run(until=RETRY_INTERVAL * (MAX_RETRIES + 1))
        assert results == [None]
        assert client.requests_sent == MAX_RETRIES
