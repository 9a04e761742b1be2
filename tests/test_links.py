"""Tests for ports and links."""

import pytest

from repro.net.addresses import IPv4Address, MacAddress
from repro.net.links import Link, LinkState, Port, PortError
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram


def _frame():
    packet = IPv4Packet(
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("10.0.0.2"),
        protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1, dst_port=2),
    )
    return EthernetFrame(MacAddress(1), MacAddress(2), EtherType.IPV4, packet)


def _wired_pair(sim, latency=0.001):
    a = Port("left", 0)
    b = Port("right", 0)
    link = Link(sim, a, b, latency=latency, name="test")
    return a, b, link


def test_frame_delivered_after_latency(sim):
    a, b, _link = _wired_pair(sim, latency=0.5)
    received = []
    b.set_frame_handler(lambda frame, port: received.append((sim.now, frame)))
    assert a.send(_frame()) is True
    sim.run()
    assert len(received) == 1
    assert received[0][0] == pytest.approx(0.5)


def test_bidirectional_delivery(sim):
    a, b, _link = _wired_pair(sim)
    got_a, got_b = [], []
    a.set_frame_handler(lambda frame, port: got_a.append(frame))
    b.set_frame_handler(lambda frame, port: got_b.append(frame))
    a.send(_frame())
    b.send(_frame())
    sim.run()
    assert len(got_a) == 1 and len(got_b) == 1


def test_send_on_unwired_port_raises(sim):
    port = Port("lonely", 0)
    with pytest.raises(PortError):
        port.send(_frame())


def test_double_attach_rejected(sim):
    a, b, _link = _wired_pair(sim)
    c = Port("third", 0)
    with pytest.raises(PortError):
        Link(sim, a, c)


def test_failed_link_drops_new_frames(sim):
    a, b, link = _wired_pair(sim)
    received = []
    b.set_frame_handler(lambda frame, port: received.append(frame))
    link.fail()
    assert a.send(_frame()) is False
    sim.run()
    assert received == []
    assert link.frames_dropped == 1


def test_in_flight_frame_survives_failure(sim):
    a, b, link = _wired_pair(sim, latency=1.0)
    received = []
    b.set_frame_handler(lambda frame, port: received.append(frame))
    a.send(_frame())
    sim.schedule(0.5, link.fail)
    sim.run()
    assert len(received) == 1


def test_state_notifications_on_fail_and_restore(sim):
    a, b, link = _wired_pair(sim)
    states = []
    a.set_state_handler(lambda state, port: states.append(("a", state)))
    b.set_state_handler(lambda state, port: states.append(("b", state)))
    link.fail()
    link.restore()
    assert ("a", LinkState.DOWN) in states
    assert ("b", LinkState.DOWN) in states
    assert ("a", LinkState.UP) in states
    assert ("b", LinkState.UP) in states


def test_fail_is_idempotent(sim):
    a, b, link = _wired_pair(sim)
    states = []
    a.set_state_handler(lambda state, port: states.append(state))
    link.fail()
    link.fail()
    assert states.count(LinkState.DOWN) == 1


def test_restore_reenables_delivery(sim):
    a, b, link = _wired_pair(sim)
    received = []
    b.set_frame_handler(lambda frame, port: received.append(frame))
    link.fail()
    link.restore()
    assert a.send(_frame()) is True
    sim.run()
    assert len(received) == 1


def test_counters_track_frames(sim):
    a, b, _link = _wired_pair(sim)
    b.set_frame_handler(lambda frame, port: None)
    a.send(_frame())
    sim.run()
    assert a.frames_sent == 1
    assert b.frames_received == 1


def test_peer_of_rejects_foreign_port(sim):
    a, b, link = _wired_pair(sim)
    foreign = Port("foreign", 0)
    with pytest.raises(PortError):
        link.peer_of(foreign)


def test_negative_latency_rejected(sim):
    a = Port("left", 0)
    b = Port("right", 0)
    with pytest.raises(PortError):
        Link(sim, a, b, latency=-1.0)


def test_port_is_up_reflects_link_state(sim):
    a, b, link = _wired_pair(sim)
    assert a.is_up and b.is_up
    link.fail()
    assert not a.is_up and not b.is_up


def test_drop_filter_loses_matching_frames(sim):
    a, b, link = _wired_pair(sim)
    received = []
    b.set_frame_handler(lambda frame, port: received.append(frame))
    link.set_drop_filter(lambda frame: True)
    # The sender believes the frame was transmitted (lost on the wire).
    assert a.send(_frame()) is True
    sim.run()
    assert received == []
    assert link.frames_dropped == 1
    assert a.frames_sent == 1


def test_drop_filter_is_selective_and_clearable(sim):
    a, b, link = _wired_pair(sim)
    received = []
    b.set_frame_handler(lambda frame, port: received.append(frame))
    link.set_drop_filter(
        lambda frame: getattr(frame.payload, "protocol", None) is IpProtocol.UDP
    )
    a.send(_frame())  # UDP payload: dropped
    sim.run()
    assert received == []
    link.clear_drop_filter()
    a.send(_frame())
    sim.run()
    assert len(received) == 1


def test_clear_drop_filter_with_stale_predicate_is_ignored(sim):
    a, b, link = _wired_pair(sim)
    first = lambda frame: True
    second = lambda frame: True
    link.set_drop_filter(first)
    link.set_drop_filter(second)
    link.clear_drop_filter(first)   # stale clear: must not remove `second`
    received = []
    b.set_frame_handler(lambda frame, port: received.append(frame))
    a.send(_frame())
    sim.run()
    assert received == []
    link.clear_drop_filter(second)
    a.send(_frame())
    sim.run()
    assert len(received) == 1
