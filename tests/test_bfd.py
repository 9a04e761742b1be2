"""Tests for BFD sessions and the manager."""

import pytest

from repro.bfd.manager import BfdManager
from repro.bfd.session import BfdSession, BfdSessionState
from repro.net.addresses import IPv4Address


def _pair(sim, interval=0.05, multiplier=3, loss=None):
    """Two BFD sessions exchanging packets with 1 ms delay.

    ``loss`` is a dict with key "active"; when True, packets are dropped —
    emulating a link failure between the two endpoints.
    """
    loss = loss if loss is not None else {"active": False}
    sessions = {}

    def make_send(target):
        def send(packet):
            if loss["active"]:
                return
            sim.schedule(0.001, lambda: sessions[target].receive(packet))

        return send

    sessions["b"] = None
    a = BfdSession(sim, send=make_send("b"), desired_min_tx_interval=interval,
                   required_min_rx_interval=interval, detect_multiplier=multiplier, name="a")
    b = BfdSession(sim, send=make_send("a"), desired_min_tx_interval=interval,
                   required_min_rx_interval=interval, detect_multiplier=multiplier, name="b")
    sessions["a"], sessions["b"] = a, b
    return a, b, loss


def test_three_way_handshake_reaches_up(sim):
    a, b, _loss = _pair(sim)
    a.start()
    b.start()
    sim.run(until=2.0)
    assert a.is_up and b.is_up


def test_up_callback_fires(sim):
    a, b, _loss = _pair(sim)
    ups = []
    a.on_up(lambda session: ups.append(sim.now))
    a.start()
    b.start()
    sim.run(until=2.0)
    assert len(ups) == 1


def test_failure_detected_within_detection_time(sim):
    a, b, loss = _pair(sim, interval=0.05, multiplier=3)
    downs = []
    a.on_down(lambda session, reason: downs.append(sim.now))
    a.start()
    b.start()
    sim.run(until=2.0)
    assert a.is_up
    loss["active"] = True
    failure_time = sim.now
    sim.run(until=failure_time + 1.0)
    assert not a.is_up
    assert len(downs) == 1
    detection_delay = downs[0] - failure_time
    # Detection must happen within the detection time plus one interval of
    # slack (the last packet may have been sent just before the failure).
    assert detection_delay <= a.detection_time + 0.05 * 1.1 + 1e-6


def test_faster_interval_detects_faster(sim):
    a_slow, b_slow, loss_slow = _pair(sim, interval=0.2)
    a_fast, b_fast, loss_fast = _pair(sim, interval=0.02)
    for session in (a_slow, b_slow, a_fast, b_fast):
        session.start()
    sim.run(until=3.0)
    downs = {}
    a_slow.on_down(lambda session, reason: downs.setdefault("slow", sim.now))
    a_fast.on_down(lambda session, reason: downs.setdefault("fast", sim.now))
    loss_slow["active"] = True
    loss_fast["active"] = True
    start = sim.now
    sim.run(until=start + 2.0)
    assert downs["fast"] - start < downs["slow"] - start


def test_session_recovers_after_restoration(sim):
    a, b, loss = _pair(sim)
    a.start()
    b.start()
    sim.run(until=2.0)
    loss["active"] = True
    sim.run_for(1.0)
    assert not a.is_up
    loss["active"] = False
    sim.run_for(2.0)
    assert a.is_up and b.is_up


def test_stop_brings_session_down(sim):
    a, b, _loss = _pair(sim)
    a.start()
    b.start()
    sim.run(until=2.0)
    a.stop()
    assert a.state is BfdSessionState.DOWN


def test_invalid_parameters_rejected(sim):
    with pytest.raises(ValueError):
        BfdSession(sim, send=lambda packet: None, desired_min_tx_interval=0.0)
    with pytest.raises(ValueError):
        BfdSession(sim, send=lambda packet: None, detect_multiplier=0)


def test_discriminators_learned(sim):
    a, b, _loss = _pair(sim)
    a.start()
    b.start()
    sim.run(until=2.0)
    assert a.remote_discriminator == b.local_discriminator
    assert b.remote_discriminator == a.local_discriminator


def test_pre_negotiation_rate_is_slow(sim):
    a, _b, _loss = _pair(sim, interval=0.02)
    # Before hearing from the peer, RFC 5880 mandates a conservative rate.
    assert a.transmit_interval >= 1.0


class TestBfdManager:
    def _managers(self, sim, interval=0.05):
        peers = {"a": IPv4Address("10.0.0.1"), "b": IPv4Address("10.0.0.2")}
        managers = {}
        loss = {"active": False}

        def make_send(source):
            def send(peer_ip, packet):
                if loss["active"]:
                    return
                target = "b" if source == "a" else "a"
                sim.schedule(
                    0.001, lambda: managers[target].receive(peers[source], packet)
                )

            return send

        managers["a"] = BfdManager(sim, send=make_send("a"), tx_interval=interval)
        managers["b"] = BfdManager(sim, send=make_send("b"), tx_interval=interval)
        managers["a"].add_peer(peers["b"])
        managers["b"].add_peer(peers["a"])
        return managers, peers, loss

    def test_sessions_come_up(self, sim):
        managers, peers, _loss = self._managers(sim)
        sim.run(until=2.0)
        for local, remote in (("a", "b"), ("b", "a")):
            assert managers[local].peers() == [peers[remote]]
            assert managers[local].session(peers[remote]).is_up

    def test_down_callback_identifies_peer(self, sim):
        managers, peers, loss = self._managers(sim)
        downs = []
        managers["a"].on_peer_down(lambda peer, reason: downs.append(peer))
        sim.run(until=2.0)
        loss["active"] = True
        sim.run_for(1.0)
        assert downs == [peers["b"]]

    def test_duplicate_peer_rejected(self, sim):
        managers, peers, _loss = self._managers(sim)
        with pytest.raises(ValueError):
            managers["a"].add_peer(peers["b"])

    def test_remove_peer_stops_session(self, sim):
        managers, peers, _loss = self._managers(sim)
        sim.run(until=2.0)
        assert managers["a"].remove_peer(peers["b"]) is True
        assert managers["a"].remove_peer(peers["b"]) is False
        assert managers["a"].session(peers["b"]) is None

    def test_up_callback(self, sim):
        managers, peers, _loss = self._managers(sim)
        ups = []
        managers["a"].on_peer_up(lambda peer: ups.append(peer))
        sim.run(until=2.0)
        assert ups == [peers["b"]]
