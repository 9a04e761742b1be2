"""Tests for the BGP session FSM, using two sessions wired back-to-back."""

import pytest

from repro.bgp.messages import NotificationMessage, OpenMessage, UpdateMessage
from repro.bgp.session import HOLD_TIME, BgpSession, BgpSessionState
from repro.bgp.attributes import AsPath, PathAttributes
from repro.net.addresses import IPv4Address, IPv4Prefix


def _pair(sim, loss=None):
    """Two sessions exchanging messages through the simulator with 1 ms delay.

    ``loss`` is an optional predicate deciding whether a message is dropped.
    """
    sessions = {}

    def make_send(target_name):
        def send(message):
            if loss is not None and loss(message):
                return
            sim.schedule(0.001, lambda: sessions[target_name].receive(message))

        return send

    sessions["a"] = BgpSession(
        sim,
        local_asn=65000,
        local_router_id=IPv4Address("10.0.0.1"),
        peer_ip=IPv4Address("10.0.0.2"),
        send=make_send("b"),
    )
    sessions["b"] = BgpSession(
        sim,
        local_asn=65001,
        local_router_id=IPv4Address("10.0.0.2"),
        peer_ip=IPv4Address("10.0.0.1"),
        send=make_send("a"),
    )
    return sessions["a"], sessions["b"]


def _update():
    return UpdateMessage.announce(
        IPv4Prefix("1.0.0.0/24"),
        PathAttributes(next_hop=IPv4Address("10.0.0.2"), as_path=AsPath((65001,))),
    )


def test_two_sided_establishment(sim):
    a, b = _pair(sim)
    a.start()
    b.start()
    sim.run(until=1.0)
    assert a.is_established
    assert b.is_established
    assert a.peer_asn == 65001
    assert b.peer_asn == 65000


def test_single_sided_start_does_not_establish(sim):
    a, b = _pair(sim)
    a.start()
    sim.run(until=2.0)
    assert not a.is_established
    assert b.state is BgpSessionState.IDLE


def test_established_callback_fires_once_per_establishment(sim):
    a, b = _pair(sim)
    events = []
    a.on_established(lambda session: events.append(sim.now))
    a.start()
    b.start()
    sim.run(until=2.0)
    assert len(events) == 1


def test_update_delivery_and_counters(sim):
    a, b = _pair(sim)
    received = []
    b.on_update(lambda session, update: received.append(update))
    a.start()
    b.start()
    sim.run(until=1.0)
    a.send_update(_update())
    sim.run(until=1.1)
    assert len(received) == 1
    assert a.updates_sent == 1
    assert b.updates_received == 1


def test_send_update_requires_established(sim):
    a, _b = _pair(sim)
    with pytest.raises(RuntimeError):
        a.send_update(_update())


def test_hold_timer_expires_without_keepalives(sim):
    a, b = _pair(sim)
    downs = []
    a.on_down(lambda session, reason: downs.append(reason))
    a.start()
    b.start()
    sim.run(until=1.0)
    assert a.is_established
    # Kill the peer silently: stop its keepalive process.
    b._keepalive_process.stop()
    sim.run(until=HOLD_TIME)
    assert a.is_established
    sim.run(until=HOLD_TIME + 1.0)
    assert not a.is_established
    assert any("hold timer" in reason for reason in downs)


def test_keepalives_maintain_session(sim):
    a, b = _pair(sim)
    a.start()
    b.start()
    sim.run(until=5 * HOLD_TIME)
    assert a.is_established and b.is_established


def test_notification_tears_down_peer(sim):
    a, b = _pair(sim)
    downs = []
    b.on_down(lambda session, reason: downs.append(reason))
    a.start()
    b.start()
    sim.run(until=1.0)
    a.stop("maintenance")
    sim.run(until=1.2)
    assert a.state is BgpSessionState.IDLE
    assert b.state is BgpSessionState.IDLE
    assert any("maintenance" in reason for reason in downs)


def test_connection_lost_tears_down_and_allows_restart(sim):
    a, b = _pair(sim)
    a.start()
    b.start()
    sim.run(until=1.0)
    a.connection_lost("link down")
    b.connection_lost("link down")
    assert a.state is BgpSessionState.IDLE
    a.start()
    b.start()
    sim.run(until=10.0)
    assert a.is_established and b.is_established


def test_open_retry_recovers_from_lost_open(sim):
    # Drop the very first OPEN from a: the connect-retry must resend it.
    dropped = {"count": 0}

    def loss(message):
        if isinstance(message, OpenMessage) and dropped["count"] == 0:
            dropped["count"] += 1
            return True
        return False

    a, b = _pair(sim, loss=loss)
    a.start()
    b.start()
    sim.run(until=15.0)
    assert a.is_established and b.is_established


def test_notification_message_reason_preserved():
    message = NotificationMessage(error_code=6, reason="collision")
    assert message.reason == "collision"
