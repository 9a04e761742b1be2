"""Tests for traffic generation, the sink monitor and flow statistics."""

import pytest

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.links import Link, Port
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram
from repro.traffic.flows import FlowSpec, FlowStats
from repro.traffic.generator import TrafficSource, TrafficSourceConfig
from repro.traffic.monitor import TrafficSink

SRC_SUBNET = IPv4Prefix("192.168.1.0/24")
SRC_IP = IPv4Address("192.168.1.2")
SRC_MAC = MacAddress("00:00:00:00:01:02")
GW_IP = IPv4Address("192.168.1.1")
GW_MAC = MacAddress("00:00:00:00:01:01")
SINK_SUBNET = IPv4Prefix("192.168.2.0/24")
SINK_IP = IPv4Address("192.168.2.2")
SINK_MAC = MacAddress("00:00:00:00:02:02")
DEST = IPv4Address("8.8.8.8")


class TestFlowStats:
    def test_max_gap_tracking(self):
        stats = FlowStats(destination=DEST)
        for when in (0.0, 1.0, 1.5, 4.5, 5.0):
            stats.record(when)
        assert stats.packets_received == 5
        assert stats.max_gap == pytest.approx(3.0)
        assert stats.max_gap_start == pytest.approx(1.5)
        assert stats.first_arrival == 0.0
        assert stats.last_arrival == 5.0

    def test_single_packet_has_no_gap(self):
        stats = FlowStats(destination=DEST)
        stats.record(1.0)
        assert stats.max_gap == 0.0

    def test_gap_excluding_nominal_interval(self):
        stats = FlowStats(destination=DEST)
        stats.record(0.0)
        stats.record(2.0)
        assert stats.max_gap_excluding_interval(0.5) == pytest.approx(1.5)
        assert stats.max_gap_excluding_interval(5.0) == 0.0

    def test_flow_spec_interval(self):
        assert FlowSpec(destination=DEST, rate_pps=200.0).interval == pytest.approx(0.005)


class TestTrafficSourceAndSink:
    def _wire_source_to_sink(self, sim, flows):
        """Source wired straight to the sink (no routers) for unit testing;
        the flows start at once, as the testbed's do."""
        source = TrafficSource(sim, "src", TrafficSourceConfig(
            ip=SRC_IP, mac=SRC_MAC, subnet=SRC_SUBNET, gateway_ip=GW_IP))
        sink = TrafficSink(sim, "sink")
        sink.add_interface("eth0", SINK_MAC, SINK_IP, SINK_SUBNET)
        Link(sim, source.port, sink.interfaces["eth0"].port, latency=1e-5)
        # The sink plays the gateway role: packets sent to the gateway MAC
        # are the sink interface's MAC in this reduced setup.
        source.add_static_neighbor(GW_IP, SINK_MAC)
        for flow in flows:
            source.add_flow(flow)
        return source, sink

    def test_packets_flow_at_configured_rate(self, sim):
        flow = FlowSpec(destination=DEST, rate_pps=100.0)
        source, sink = self._wire_source_to_sink(sim, [flow])
        sink.monitor(DEST)
        source.start()
        sim.run(until=1.0)
        stats = sink.stats(DEST)
        assert 90 <= stats.packets_received <= 110
        assert source.packets_sent == stats.packets_received

    def test_unmonitored_destinations_are_ignored(self, sim):
        flow = FlowSpec(destination=DEST, rate_pps=50.0)
        source, sink = self._wire_source_to_sink(sim, [flow])
        sink.monitor(IPv4Address("9.9.9.9"))
        source.start()
        sim.run(until=0.5)
        assert sink.packets_ignored > 0
        assert sink.stats(IPv4Address("9.9.9.9")).packets_received == 0

    def test_max_gap_reflects_interruption(self, sim):
        flow = FlowSpec(destination=DEST, rate_pps=100.0)
        source, sink = self._wire_source_to_sink(sim, [flow])
        sink.monitor(DEST)
        source.start()
        sim.run(until=0.5)
        link = source.port.link
        link.fail()
        sim.run(until=0.8)
        link.restore()
        sim.run(until=1.3)
        gap = sink.stats(DEST).max_gap
        assert gap == pytest.approx(0.3, abs=0.05)

    def test_stop_halts_transmission(self, sim):
        flow = FlowSpec(destination=DEST, rate_pps=100.0)
        source, sink = self._wire_source_to_sink(sim, [flow])
        sink.monitor(DEST)
        source.start()
        sim.run(until=0.2)
        source.stop()
        count = sink.stats(DEST).packets_received
        sim.run(until=1.0)
        assert sink.stats(DEST).packets_received == count

    def test_add_flow_after_start(self, sim):
        source, sink = self._wire_source_to_sink(sim, [])
        other = IPv4Address("7.7.7.7")
        sink.monitor(other)
        source.start()
        source.add_flow(FlowSpec(destination=other, rate_pps=100.0))
        sim.run(until=0.5)
        assert sink.stats(other).packets_received > 0

    def test_gateway_resolution_via_arp(self, sim):
        """Without a static gateway MAC, the source ARPs for it."""
        flow = FlowSpec(destination=DEST, rate_pps=100.0)
        source = TrafficSource(sim, "src", TrafficSourceConfig(
            ip=SRC_IP, mac=SRC_MAC, subnet=SRC_SUBNET, gateway_ip=GW_IP))
        # A fake gateway host that answers ARP and records data frames.
        received = []
        gateway_port = Port("gw", 0)

        def gateway_handler(frame, port):
            if frame.ethertype is EtherType.ARP:
                packet = frame.payload
                if packet.target_ip == GW_IP:
                    from repro.arp.protocol import build_arp_reply

                    port.send(build_arp_reply(GW_MAC, GW_IP, packet.sender_mac, packet.sender_ip))
                return
            received.append(frame)

        gateway_port.set_frame_handler(gateway_handler)
        Link(sim, source.port, gateway_port, latency=1e-5)
        source.add_flow(flow)
        source.start()
        sim.run(until=0.5)
        assert source.arp_cache.lookup(GW_IP, sim.now) == GW_MAC
        assert received and received[0].dst_mac == GW_MAC

    def test_sink_reset_clears_statistics(self, sim):
        flow = FlowSpec(destination=DEST, rate_pps=100.0)
        source, sink = self._wire_source_to_sink(sim, [flow])
        sink.monitor(DEST)
        source.start()
        sim.run(until=0.5)
        sink.reset()
        assert sink.stats(DEST).packets_received == 0
        assert DEST in sink.monitored()

    def test_per_flow_send_counters(self, sim):
        flows = [FlowSpec(destination=DEST, rate_pps=50.0),
                 FlowSpec(destination=IPv4Address("9.9.9.9"), rate_pps=50.0)]
        source, sink = self._wire_source_to_sink(sim, flows)
        source.start()
        sim.run(until=0.5)
        assert set(source.packets_sent_per_flow) == {DEST, IPv4Address("9.9.9.9")}

    def test_duplicate_sink_interface_rejected(self, sim):
        sink = TrafficSink(sim, "sink")
        sink.add_interface("eth0", SINK_MAC, SINK_IP, SINK_SUBNET)
        with pytest.raises(ValueError):
            sink.add_interface("eth0", SINK_MAC, SINK_IP, SINK_SUBNET)

    def test_sink_answers_arp(self, sim):
        sink = TrafficSink(sim, "sink")
        sink.add_interface("eth0", SINK_MAC, SINK_IP, SINK_SUBNET)
        asker_port = Port("asker", 0)
        replies = []
        asker_port.set_frame_handler(lambda frame, port: replies.append(frame))
        Link(sim, asker_port, sink.interfaces["eth0"].port, latency=1e-5)
        from repro.arp.protocol import build_arp_request

        asker_port.send(build_arp_request(SRC_MAC, SRC_IP, SINK_IP))
        sim.run()
        assert replies and replies[0].payload.sender_mac == SINK_MAC
