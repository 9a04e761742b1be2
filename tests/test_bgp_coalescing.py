"""Same-instant UPDATE trains: what a session coalesces, and what it must not.

The first UPDATE of a simulated instant leaves at once; later UPDATEs of
that instant leave together as one :class:`UpdateTrain`.  Order on the
wire is TCP order, a reset loses what was still corked, and the receiver
hands its callbacks the members in send order, a sub-train (at most
``SUB_TRAIN`` members, a lone UPDATE as a tuple of one) at a time.
"""

import json
from pathlib import Path

import pytest

from repro.bgp.attributes import AsPath, PathAttributes
from repro.bgp.messages import (
    KeepaliveMessage,
    NotificationMessage,
    UpdateMessage,
    UpdateTrain,
)
from repro.bgp.session import HOLD_TIME, SUB_TRAIN, BgpSession
from repro.bgp.speaker import BgpSpeaker, PeerConfig
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.links import Link
from repro.router.router import Router, RouterConfig

DATA = Path(__file__).parent / "data"
A_IP = IPv4Address("10.0.0.1")
B_IP = IPv4Address("10.0.0.2")
SUBNET = IPv4Prefix("10.0.0.0/24")
LINK_LATENCY = 1e-5
DELAY = 0.001


def _prefix(index):
    return IPv4Prefix(f"20.{index // 256}.{index % 256}.0/24")


def _attrs(as_path=(65001,)):
    return PathAttributes(next_hop=B_IP, as_path=AsPath(as_path))


def _announce(index):
    return UpdateMessage.announce(_prefix(index), _attrs())


def _flatten(messages):
    """The UPDATEs of a wire capture, trains unpacked, in wire order."""
    updates = []
    for message in messages:
        if isinstance(message, UpdateTrain):
            updates.extend(message.updates)
        elif isinstance(message, UpdateMessage):
            updates.append(message)
    return updates


def _log_prefixes(session, log):
    """Record the prefix of every UPDATE ``session`` delivers, in order."""
    session.on_update(lambda _session, updates: log.extend(u.prefix for u in updates))


def _pair(sim, loss=None):
    """Sessions ``a`` and ``b`` joined by a 1 ms pipe; ``wire`` records
    ``(send time, sender, message)`` for everything handed to it."""
    sessions = {}
    wire = []

    def make_send(sender, target):
        def send(message):
            wire.append((sim.now, sender, message))
            if loss is not None and loss(sender, message):
                return
            sim.schedule(DELAY, lambda: sessions[target].receive(message))

        return send

    sessions["a"] = BgpSession(
        sim, local_asn=65000, local_router_id=A_IP, peer_ip=B_IP,
        send=make_send("a", "b"),
    )
    sessions["b"] = BgpSession(
        sim, local_asn=65001, local_router_id=B_IP, peer_ip=A_IP,
        send=make_send("b", "a"),
    )
    sessions["a"].start()
    sessions["b"].start()
    sim.run(until=1.0)
    assert sessions["a"].is_established and sessions["b"].is_established
    del wire[:]
    return sessions["a"], sessions["b"], wire


def _speaker_pair(sim):
    """Speakers ``r1`` (learns) and ``r2`` (originates) over a 1 ms fabric;
    ``wire`` records every message r2 hands to its transport."""
    speakers = {}
    wire = []

    def transport_for(local_ip):
        def transport(peer_ip, message):
            if local_ip == B_IP:
                wire.append(message)
            sim.schedule(DELAY, lambda: speakers[peer_ip].deliver(local_ip, message))

        return transport

    speakers[A_IP] = BgpSpeaker(sim, asn=65000, router_id=A_IP, transport=transport_for(A_IP))
    speakers[B_IP] = BgpSpeaker(sim, asn=65001, router_id=B_IP, transport=transport_for(B_IP))
    speakers[A_IP].add_peer(PeerConfig(peer_ip=B_IP, peer_asn=65001, advertise=False))
    speakers[B_IP].add_peer(PeerConfig(peer_ip=A_IP, peer_asn=65000))
    speakers[A_IP].start()
    speakers[B_IP].start()
    sim.run(until=1.0)
    return speakers[A_IP], speakers[B_IP], wire


# ----------------------------------------------------------------------
# What coalesces
# ----------------------------------------------------------------------
def test_burst_crosses_the_link_as_one_bare_update_and_one_train(sim):
    r1 = Router(sim, "R1", RouterConfig(asn=65000, router_id=A_IP, bfd_interval=None))
    r2 = Router(sim, "R2", RouterConfig(asn=65001, router_id=B_IP, bfd_interval=None))
    r1.add_interface("core", MacAddress("00:00:00:00:00:01"), A_IP, SUBNET)
    r2.add_interface("core", MacAddress("00:00:00:00:00:02"), B_IP, SUBNET)
    link = Link(
        sim, r1.interfaces["core"].port, r2.interfaces["core"].port, latency=LINK_LATENCY
    )
    r1.add_bgp_peer(PeerConfig(peer_ip=B_IP, peer_asn=65001, advertise=False))
    r2.add_bgp_peer(PeerConfig(peer_ip=A_IP, peer_asn=65000))
    r1.start()
    r2.start()
    sim.run(until=2.0)
    assert B_IP in r1.bgp.established_peers()

    frames = []

    def capture(frame):
        message = getattr(frame.payload, "message", None)
        if isinstance(message, (UpdateMessage, UpdateTrain)):
            frames.append(frame)
        return False  # observe only

    link.set_drop_filter(capture)
    burst = 50
    sent_at = sim.now
    for index in range(burst):
        r2.bgp.originate(_prefix(index), _attrs())
    sim.run_for(0.5)

    messages = [frame.payload.message for frame in frames]
    assert [type(m) for m in messages] == [UpdateMessage, UpdateTrain]
    assert len(messages[1].updates) == burst - 1
    assert [u.prefix for u in _flatten(messages)] == [_prefix(i) for i in range(burst)]
    # Every route arrived when a frame of its own would have arrived.
    rib = r1.bgp.loc_rib
    assert len(rib.prefixes_from(B_IP)) == burst
    assert {rib.best(_prefix(i)).learned_at for i in range(burst)} == {
        sent_at + LINK_LATENCY
    }
    sender = r2.bgp.peer_session(A_IP)
    receiver = r1.bgp.peer_session(B_IP)
    assert (sender.updates_sent, sender.trains_sent) == (burst, 1)
    assert (receiver.updates_received, receiver.trains_received) == (burst, 1)



def test_updates_at_distinct_instants_never_build_a_train(sim):
    a, b, wire = _pair(sim)
    events = []
    sim.set_observer(lambda name, when: events.append(name))
    for index in range(5):
        sim.schedule(0.01 * (index + 1), lambda i=index: a.send_update(_announce(i)))
    sim.run(until=2.0)
    sent = [message for _when, sender, message in wire if sender == "a"]
    assert [type(m) for m in sent] == [UpdateMessage] * 5
    assert not [name for name in events if name.startswith("bgp-flush")]
    assert (a.updates_sent, a.trains_sent) == (5, 0)
    assert (b.updates_received, b.trains_received) == (5, 0)


def test_a_second_update_alone_in_its_instant_leaves_bare(sim):
    a, b, wire = _pair(sim)
    a.send_update(_announce(0))
    a.send_update(_announce(1))
    sim.run(until=1.5)
    assert [type(m) for _w, s, m in wire if s == "a"] == [UpdateMessage, UpdateMessage]
    assert (a.trains_sent, b.trains_received, b.updates_received) == (0, 0, 2)


def _burst(session, start, count=3):
    for index in range(start, start + count):
        session.send_update(_announce(index))


def test_events_of_one_instant_share_a_train(sim):
    a, b, wire = _pair(sim)
    received = []
    _log_prefixes(b, received)
    # Both events were queued before the flush the first one schedules,
    # so the flush finds the UPDATEs of both.
    sim.schedule(0.1, lambda: _burst(a, 0))
    sim.schedule(0.1, lambda: _burst(a, 3))
    sim.run(until=2.0)
    sent = [m for _w, s, m in wire if s == "a"]
    assert [type(m) for m in sent] == [UpdateMessage, UpdateTrain]
    assert len(sent[1].updates) == 5
    assert received == [_prefix(i) for i in range(6)]


def test_updates_queued_after_the_flush_of_their_instant_form_the_next_train(sim):
    a, b, wire = _pair(sim)
    received = []
    _log_prefixes(b, received)

    def first():
        _burst(a, 0)
        sim.call_soon(lambda: _burst(a, 3))  # runs behind the flush event

    sim.schedule(0.1, first)
    sim.run(until=2.0)
    sent = [m for _w, s, m in wire if s == "a"]
    assert [type(m) for m in sent] == [UpdateMessage, UpdateTrain, UpdateTrain]
    assert [len(m.updates) for m in sent[1:]] == [2, 3]
    assert received == [_prefix(i) for i in range(6)]


# ----------------------------------------------------------------------
# Order is TCP order
# ----------------------------------------------------------------------
def test_keepalive_sent_mid_burst_arrives_after_the_corked_updates(sim):
    a, b, wire = _pair(sim)
    log = []
    _log_prefixes(b, log)
    fired = []

    def burst_just_before_the_keepalive(name, when):
        # The observer runs at the keepalive tick's instant, ahead of its
        # callback: the burst is corked when the KEEPALIVE is written.
        if name == f"bgp-keepalive:{B_IP}" and not fired:
            fired.append(when)
            for index in range(4):
                a.send_update(_announce(index))

    sim.set_observer(burst_just_before_the_keepalive)
    sim.run(until=HOLD_TIME / 3.0 + 1.5)
    sim.set_observer(None)
    assert fired
    at_tick = [m for when, s, m in wire if s == "a" and when == fired[0]]
    assert [type(m) for m in at_tick] == [UpdateMessage, UpdateTrain, KeepaliveMessage]
    assert log == [_prefix(i) for i in range(4)]
    assert a.is_established and b.is_established


def test_stop_notification_follows_the_corked_updates(sim):
    a, b, wire = _pair(sim)
    log = []
    _log_prefixes(b, log)
    for index in range(4):
        a.send_update(_announce(index))
    a.stop("maintenance")
    sim.run(until=1.5)
    sent = [m for _w, s, m in wire if s == "a"]
    assert [type(m) for m in sent] == [UpdateMessage, UpdateTrain, NotificationMessage]
    assert log == [_prefix(i) for i in range(4)]
    assert not b.is_established


# ----------------------------------------------------------------------
# A reset loses what was still in the socket buffer
# ----------------------------------------------------------------------
def test_connection_lost_mid_burst_delivers_none_of_the_corked_updates(sim):
    a, b, wire = _pair(sim)
    log = []
    _log_prefixes(b, log)
    for index in range(4):
        a.send_update(_announce(index))
    a.connection_lost("link down")
    sim.run(until=1.5)
    sent = [m for _w, s, m in wire if s == "a"]
    assert sent == [sent[0]] and isinstance(sent[0], UpdateMessage)
    assert log == [_prefix(0)]  # the one that had already left
    assert a.trains_sent == 0


def test_hold_expiry_mid_burst_delivers_none_of_the_corked_updates(sim):
    silenced = []
    a, b, wire = _pair(sim, loss=lambda sender, message: bool(silenced) and sender == "b")
    silenced.append(True)  # b goes quiet: a's hold timer will expire
    fired = []

    def burst_just_before_the_expiry(name, when):
        if name == f"bgp-hold:{B_IP}" and not fired:
            fired.append(when)
            for index in range(4):
                a.send_update(_announce(index))

    sim.set_observer(burst_just_before_the_expiry)
    sim.run(until=HOLD_TIME + 10.0)
    sim.set_observer(None)
    assert fired and not a.is_established
    updates = _flatten(m for _w, s, m in wire if s == "a")
    assert [u.prefix for u in updates] == [_prefix(0)]
    assert a.trains_sent == 0


def test_re_established_session_gets_a_clean_initial_transfer(sim):
    r1, r2, wire = _speaker_pair(sim)
    burst = 20
    for index in range(burst):
        r2.originate(_prefix(index), _attrs())
    # Both ends lose the connection with burst-1 UPDATEs still corked.
    r2.peer_connection_lost(A_IP)
    r1.peer_connection_lost(B_IP)
    sim.run_for(0.5)
    assert [u.prefix for u in _flatten(wire)] == [_prefix(0)]
    assert len(r1.loc_rib.prefixes_from(B_IP)) == 0

    del wire[:]
    r1.start_peer(B_IP)
    r2.start_peer(A_IP)
    sim.run_for(1.0)
    assert B_IP in r1.established_peers()
    transfer = _flatten(wire)
    # Exactly one table's worth: nothing stale from before the reset.
    assert sorted(u.prefix for u in transfer) == [_prefix(i) for i in range(burst)]
    assert len(r1.loc_rib.prefixes_from(B_IP)) == burst
    assert r2.peer_session(A_IP).trains_sent == 1


# ----------------------------------------------------------------------
# The receiver
# ----------------------------------------------------------------------
def test_receiver_restarts_hold_timer_once_per_train_and_counts_every_update(sim):
    a, b, _wire = _pair(sim)
    hold_restarts = []
    schedule, postpone = sim.schedule, sim.postpone

    def counting_schedule(delay, callback, name=""):
        if name == f"bgp-hold:{A_IP}":
            hold_restarts.append(sim.now)
        return schedule(delay, callback, name)

    def counting_postpone(event, delay):
        # A restart moves the pending hold timer instead of re-filing it.
        if event.name == f"bgp-hold:{A_IP}":
            hold_restarts.append(sim.now)
        return postpone(event, delay)

    sim.schedule = counting_schedule
    sim.postpone = counting_postpone
    seen = []
    b.on_update(lambda session, updates: seen.append(updates))
    train = tuple(_announce(i) for i in range(10))
    b.receive(UpdateTrain(updates=train))
    assert len(hold_restarts) == 1
    assert b.updates_received == 10 and b.trains_received == 1
    assert seen == [train]  # one callback for the whole (sub-)train
    b.receive(_announce(10))
    assert len(hold_restarts) == 2
    assert b.updates_received == 11 and b.trains_received == 1
    assert seen[1:] == [(_announce(10),)]  # a lone UPDATE is a train of one


def test_a_long_train_is_delivered_in_sub_trains_and_counts_every_member(sim):
    a, b, _wire = _pair(sim)
    sizes = []
    b.on_update(lambda session, updates: sizes.append(len(updates)))
    count = 2 * SUB_TRAIN + 7
    for index in range(count + 1):  # the first leaves bare
        a.send_update(_announce(index))
    sim.run(until=1.5)
    assert sizes == [1, SUB_TRAIN, SUB_TRAIN, 7]
    assert (a.updates_sent, a.trains_sent) == (count + 1, 1)
    assert (b.updates_received, b.trains_received) == (count + 1, 1)


def test_train_is_ignored_unless_established(sim):
    session = BgpSession(
        sim, local_asn=65000, local_router_id=A_IP, peer_ip=B_IP, send=lambda message: None
    )
    seen = []
    session.on_update(lambda s, updates: seen.append(updates))
    session.receive(UpdateTrain(updates=(_announce(0), _announce(1))))
    assert not seen
    assert session.updates_received == 0 and session.trains_received == 0


def test_a_reset_from_inside_a_callback_loses_the_rest_of_the_train(sim):
    """...at sub-train granularity: the sub-train being delivered when the
    callback resets is the last one counted and seen."""
    _a, b, _wire = _pair(sim)
    seen = []

    def reset_in_second_sub_train(session, updates):
        seen.extend(update.prefix for update in updates)
        if len(seen) > SUB_TRAIN:
            session.connection_lost("max-prefix")

    b.on_update(reset_in_second_sub_train)
    b.receive(UpdateTrain(updates=tuple(_announce(i) for i in range(3 * SUB_TRAIN))))
    assert seen == [_prefix(i) for i in range(2 * SUB_TRAIN)]
    assert b.updates_received == 2 * SUB_TRAIN


def test_withdraw_and_announce_of_one_prefix_in_a_train_apply_in_send_order(sim):
    r1, r2, wire = _speaker_pair(sim)
    changes = []
    r1.on_rib_change(
        lambda batch, peer: changes.extend(
            (change.prefix, change.new_best.attributes.as_path.asns if change.new_best else None)
            for change in batch
        )
    )
    kept, dropped = _prefix(1), _prefix(2)
    r2.originate(_prefix(0), _attrs())  # leaves bare; the rest is one train
    r2.originate(kept, _attrs((65001, 100)))
    r2.originate(dropped, _attrs())
    r2.withdraw_origin(kept)
    r2.originate(kept, _attrs((65001, 200)))
    r2.withdraw_origin(dropped)
    sim.run_for(0.5)

    assert [type(m) for m in wire[-2:]] == [UpdateMessage, UpdateTrain]
    assert len(wire[-1].updates) == 5
    assert [entry for entry in changes if entry[0] == kept] == [
        (kept, (65001, 65001, 100)),
        (kept, None),
        (kept, (65001, 65001, 200)),
    ]
    assert r1.loc_rib.best(kept).attributes.as_path.asns == (65001, 65001, 200)
    assert r1.loc_rib.best(dropped) is None
    assert dropped not in r1.loc_rib.prefixes_from(B_IP)


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
def test_trains_are_counted_in_passive_telemetry(sim):
    from repro.telemetry import Telemetry

    r1, r2, _wire = _speaker_pair(sim)
    telemetry = Telemetry(lambda: sim.now)
    r2.attach_telemetry(telemetry)
    for index in range(9):
        r2.originate(_prefix(index), _attrs())
    sim.run_for(0.5)
    r2.originate(_prefix(100), _attrs())  # a lone UPDATE is not a train
    sim.run_for(0.5)
    assert telemetry.metrics.get("bgp.trains_sent").value == 1
    histogram = telemetry.metrics.get("bgp.updates_per_train")
    assert (histogram.count, histogram.total) == (1, 8.0)
    assert len(r1.loc_rib.prefixes_from(B_IP)) == 10


# ----------------------------------------------------------------------
# Fidelity: trains moved event counts, nothing else
# ----------------------------------------------------------------------
def _pinned_specs():
    from repro.scenarios.presets import get_preset
    from repro.scenarios.spec import failure_campaign

    return {
        "figure4": get_preset("figure4", num_prefixes=200, seed=1),
        "figure4-standalone": get_preset("figure4-standalone", num_prefixes=200, seed=1),
        # The e2e benchmark's churn-failover workload at 200 prefixes.
        "ris-churn": get_preset(
            "ris-churn", num_prefixes=200, seed=1, num_providers=3, remote_groups=True,
            churn_rate_ups=1000.0, churn_withdraw_fraction=0.3,
            failures=failure_campaign("link_down", at=0.7),
        ),
    }


@pytest.mark.parametrize("name", ["figure4", "figure4-standalone", "ris-churn"])
def test_campaign_record_equals_the_pre_train_record_except_sim_events(name):
    """``tests/data/campaign_records_before_update_trains.json`` holds the
    records ``run_scenario`` returned for these specs at the parent commit
    (883cb04, one frame per UPDATE).  Coalescing may only move event
    counts: every other field, time-valued ones included, is pinned."""
    from repro.scenarios.campaign import run_scenario

    with open(DATA / "campaign_records_before_update_trains.json", encoding="utf-8") as handle:
        before = json.load(handle)[name]
    record = json.loads(json.dumps(run_scenario(_pinned_specs()[name])))
    assert record.pop("sim_events") < before.pop("sim_events")
    assert record == before
