"""Property-based tests (hypothesis) on the core data structures and
invariants: addressing, LPM, the flow table, the decision process, the BGP
speaker's Loc-RIB, backup groups and the FIB updater's timing model."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.decision import rank_routes
from repro.bgp import session as bgp_session
from repro.bgp.messages import KeepaliveMessage, OpenMessage, UpdateMessage, UpdateTrain
from repro.bgp.rib import LocRib, RibChange, Route, RouteSource
from repro.bgp.session import SUB_TRAIN
from repro.bgp.speaker import BgpSpeaker, PeerConfig
from repro.core.backup_groups import BackupGroupManager
from repro.core.controller import ControllerConfig, PeerSpec, SuperchargedController
from repro.core.vnh_allocator import VnhAllocator
from repro.stats import BoxStats, percentile
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.net.links import Link, Port
from repro.net.packets import EtherType, EthernetFrame, IpProtocol, IPv4Packet, UdpDatagram
from repro.openflow.controller_channel import ControllerChannel
from repro.openflow.flow_table import (
    Actions,
    FlowEntry,
    FlowMatch,
    FlowTable,
    FlowTableError,
)
from repro.openflow.messages import FlowMod, FlowModCommand
from repro.router.fib import LpmTable
from repro.router.fib_updater import FibUpdaterConfig, FibWriteRequest
from repro.router.router import Router, RouterConfig
from repro.sim.engine import Simulator

ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(IPv4Address)
macs = st.integers(min_value=0, max_value=(1 << 48) - 1).map(MacAddress)
prefix_lengths = st.integers(min_value=0, max_value=32)
prefixes = st.builds(
    lambda ip, length: IPv4Prefix(ip, length), ips, prefix_lengths
)


@given(ips)
def test_ipv4_string_roundtrip(address):
    assert IPv4Address(str(address)) == address


@given(macs)
def test_mac_string_roundtrip(mac):
    assert MacAddress(str(mac)) == mac


@given(prefixes)
def test_prefix_contains_its_own_bounds(prefix):
    assert prefix.contains(prefix.network)
    assert prefix.contains(prefix.last_address)
    assert prefix.contains(prefix)


@given(prefixes, ips)
def test_prefix_containment_matches_mask_arithmetic(prefix, address):
    expected = (address.value & IPv4Prefix.mask_for(prefix.length)) == prefix.network.value
    assert prefix.contains(address) == expected


@given(st.lists(prefixes, min_size=1, max_size=30))
def test_prefix_is_its_code(sample):
    """One identity: the text round-trips, int order is (network, length)
    order, and a prefix and its raw code are the same dictionary key."""
    for prefix in sample:
        assert IPv4Prefix(str(prefix)) == prefix
        assert IPv4Prefix.from_code(int(prefix)) == prefix
        assert {prefix: 1}[int(prefix)] == 1
    assert sorted(sample) == sorted(sample, key=lambda prefix: prefix.as_tuple())


# Two fixed addresses next to the random ones, so removes and replaces
# hit stored prefixes often, crossed with every mask length 0-32.
_LPM_HOT = [IPv4Address("10.1.2.3"), IPv4Address("10.1.200.7")]
_lpm_prefixes = st.builds(
    IPv4Prefix, st.one_of(ips, st.sampled_from(_LPM_HOT)), prefix_lengths
)
_lpm_steps = st.lists(
    st.tuples(st.sampled_from(["insert", "remove"]), _lpm_prefixes, st.integers()),
    max_size=40,
)


@given(_lpm_steps, ips)
def test_lpm_returns_longest_matching_prefix(steps, probe):
    table = LpmTable()
    reference = {}
    probes = [probe] + _LPM_HOT
    for action, prefix, value in steps:
        if action == "insert":
            assert table.insert(prefix, value) is (prefix not in reference)
            reference[prefix] = value
        else:
            assert table.remove(prefix) is (prefix in reference)
            reference.pop(prefix, None)
        assert len(table) == len(reference)
        assert (prefix in table) is (prefix in reference)
        assert table.exact(prefix) == reference.get(prefix)
        for address in probes:
            matching = [stored for stored in reference if stored.contains(address)]
            result = table.lookup(address)
            if not matching:
                assert result is None
            else:
                best = max(matching, key=lambda stored: stored.length)
                assert result == (best, reference[best])


# --- flow table vs. a sorted-list oracle ---------------------------------
# Four overlapping matches x three priorities in a five-entry TCAM: FIFO
# ties, replace-moves-to-back, modify-keeps-slot and overflow all occur
# within a few dozen steps.
_FT_MACS = [MacAddress(0x02_00_00_00_00_0A + i) for i in range(3)]
_FT_MATCHES = [
    FlowMatch(eth_dst=_FT_MACS[0]),
    FlowMatch(in_port=1),
    FlowMatch(eth_dst=_FT_MACS[0], in_port=1),
    FlowMatch(),
]
_FT_CAPACITY = 5
_ft_match = st.sampled_from(_FT_MATCHES)
_ft_priority = st.sampled_from([10, 100, 200])
_ft_port = st.integers(min_value=1, max_value=9)
_ft_probe = st.tuples(st.sampled_from(_FT_MACS[:2]), st.sampled_from([1, 2]))
_ft_mod = st.builds(
    lambda command, match, priority, port: FlowMod(
        command, match, Actions(output_port=port), priority=priority
    ),
    st.sampled_from(list(FlowModCommand)), _ft_match, _ft_priority, _ft_port,
)
_ft_steps = st.lists(
    st.one_of(
        st.tuples(st.just("install"), _ft_match, _ft_priority, _ft_port),
        st.tuples(st.just("modify"), _ft_match, _ft_priority, _ft_port),
        # ... and of the n-th installed entry, so a modify often hits.
        st.tuples(st.just("modify_nth"), st.integers(0, _FT_CAPACITY - 1), _ft_port),
        st.tuples(st.just("remove"), _ft_match, st.one_of(st.none(), _ft_priority)),
        st.tuples(st.just("apply_batch"), st.lists(_ft_mod, max_size=5)),
        st.tuples(st.just("lookup"), _ft_probe),
    ),
    max_size=40,
)


class _FlowTableOracle:
    """Rows ``[priority, seq, match, port]``, re-sorted after every
    insert by ``(-priority, seq)``; a replace gets a fresh ``seq``."""

    def __init__(self):
        self.rows = []
        self.seq = 0

    def row(self, match, priority):
        return next((r for r in self.rows if (r[2], r[0]) == (match, priority)), None)

    def install(self, match, priority, port):
        """False (and nothing changes) when the TCAM would overflow."""
        existing = self.row(match, priority)
        if existing is None and len(self.rows) >= _FT_CAPACITY:
            return False
        self.remove(match, priority)
        self.seq += 1
        self.rows.append([priority, self.seq, match, port])
        self.rows.sort(key=lambda r: (-r[0], r[1]))
        return True

    def modify(self, match, priority, port):
        existing = self.row(match, priority)
        if existing is not None:
            existing[3] = port
        return existing is not None

    def remove(self, match, priority):
        before = len(self.rows)
        self.rows = [
            r for r in self.rows if r[2] != match or priority not in (None, r[0])
        ]
        return before - len(self.rows)

    def first(self, frame, in_port):
        return next((r for r in self.rows if r[2].matches(frame, in_port)), None)


def _ft_frame(dst_mac):
    packet = IPv4Packet(
        src=IPv4Address("10.0.0.1"),
        dst=IPv4Address("1.0.0.1"),
        protocol=IpProtocol.UDP,
        payload=UdpDatagram(src_port=1, dst_port=2),
    )
    return EthernetFrame(_FT_MACS[2], dst_mac, EtherType.IPV4, packet)


@settings(max_examples=300)
@given(_ft_steps)
def test_flow_table_matches_sorted_list_oracle(steps):
    table = FlowTable(capacity=_FT_CAPACITY)
    oracle = _FlowTableOracle()

    def install(match, priority, port):
        entry = FlowEntry(match, Actions(output_port=port), priority=priority)
        if oracle.install(match, priority, port):
            table.install(entry)
        else:
            with pytest.raises(FlowTableError):
                table.install(entry)

    for step in steps:
        kind = step[0]
        if kind == "modify_nth":
            if not oracle.rows:
                continue
            row = oracle.rows[step[1] % len(oracle.rows)]
            kind, step = "modify", ("modify", row[2], row[0], step[2])
        if kind == "install":
            install(*step[1:])
        elif kind == "modify":
            match, priority, port = step[1:]
            assert table.modify(match, priority, Actions(output_port=port)) is (
                oracle.modify(match, priority, port)
            )
        elif kind == "remove":
            assert table.remove(step[1], step[2]) == oracle.remove(step[1], step[2])
        elif kind == "apply_batch":
            accepted = 0
            for mod in step[1]:
                port = mod.actions.output_port
                if mod.command is FlowModCommand.DELETE:
                    oracle.remove(mod.match, mod.priority)
                elif mod.command is FlowModCommand.MODIFY and oracle.modify(
                    mod.match, mod.priority, port
                ):
                    pass
                elif not oracle.install(mod.match, mod.priority, port):
                    break  # overflow: the mods before it stay applied
                accepted += 1
            if accepted == len(step[1]):
                assert table.apply_batch(step[1], now=2.5) == accepted
            else:
                with pytest.raises(FlowTableError):
                    table.apply_batch(step[1], now=2.5)
        else:
            dst_mac, in_port = step[1]
            frame = _ft_frame(dst_mac)
            expected = oracle.first(frame, in_port)
            found = table.lookup(frame, in_port)
            if expected is None:
                assert found is None
            else:
                assert (found.match, found.priority) == (expected[2], expected[0])

        installed = table.entries()
        assert len(table) == len(installed) == len(oracle.rows)
        assert [(e.priority, e.match, e.actions.output_port) for e in installed] == [
            (r[0], r[2], r[3]) for r in oracle.rows
        ]
        for entry in installed:
            assert table.find(entry.match, entry.priority) is entry
        for match in _FT_MATCHES:
            for priority in (10, 100, 200):
                if oracle.row(match, priority) is None:
                    assert table.find(match, priority) is None


route_sources = st.builds(
    lambda ip: RouteSource(peer_ip=ip, peer_asn=65001, router_id=ip),
    ips,
)
routes = st.builds(
    lambda source, local_pref, as_len, origin, med: Route(
        prefix=IPv4Prefix("1.0.0.0/24"),
        attributes=PathAttributes(
            next_hop=source.peer_ip,
            as_path=AsPath(tuple([65001] * as_len)),
            origin=origin,
            local_pref=local_pref,
            med=med,
        ),
        source=source,
    ),
    route_sources,
    st.integers(min_value=0, max_value=400),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(list(Origin)),
    st.integers(min_value=0, max_value=50),
)


@given(st.lists(routes, min_size=1, max_size=12))
def test_decision_process_ranking_is_stable_and_total(candidates):
    ranked = rank_routes(candidates)
    assert sorted(map(id, ranked)) == sorted(map(id, candidates))
    # The winner must have the highest LOCAL_PREF of all candidates.
    top_pref = max(route.attributes.local_pref for route in candidates)
    assert ranked[0].attributes.local_pref == top_pref
    # Ranking twice (or ranking a shuffled copy) gives the same order of keys.
    again = rank_routes(list(reversed(candidates)))
    assert [r.attributes for r in again] == [r.attributes for r in ranked]


# ----------------------------------------------------------------------
# One speaker, three peers, against a {(peer, prefix): attributes} model
# ----------------------------------------------------------------------
_SPEAKER_ASN = 65000
#: (address, ASN, LOCAL_PREF the speaker sets on import).
_SPEAKER_PEERS = (
    (IPv4Address("10.0.0.2"), 65001, 200),
    (IPv4Address("10.0.0.3"), 65002, None),
    (IPv4Address("10.0.0.4"), 65003, 100),
)
_SPEAKER_PREFIXES = tuple(IPv4Prefix(f"10.{index}.0.0/16") for index in range(4))
_speaker_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("announce"),
            st.integers(0, 2),
            st.integers(0, 3),
            st.integers(1, 4),  # AS-path length
            st.integers(0, 3),  # MED
            st.booleans(),  # the path loops through the speaker's own AS
        ),
        st.tuples(st.just("withdraw"), st.integers(0, 2), st.integers(0, 3)),
        st.tuples(st.just("down"), st.integers(0, 2)),
    ),
    max_size=40,
)


def _establish(sim, speaker, peer_ip, asn):
    speaker.start_peer(peer_ip)
    sim.run_for(0.02)  # the connect delay: our OPEN is out
    speaker.deliver(peer_ip, OpenMessage(asn=asn, router_id=peer_ip))
    speaker.deliver(peer_ip, KeepaliveMessage())
    assert peer_ip in speaker.established_peers()


@settings(max_examples=150, deadline=None)
@given(_speaker_steps)
def test_speaker_loc_rib_matches_dict_model(steps):
    sim = Simulator(seed=1)
    speaker = BgpSpeaker(
        sim,
        asn=_SPEAKER_ASN,
        router_id=IPv4Address("10.0.0.1"),
        transport=lambda peer_ip, message: None,
    )
    for peer_ip, asn, local_pref in _SPEAKER_PEERS:
        speaker.add_peer(PeerConfig(peer_ip=peer_ip, peer_asn=asn, local_pref=local_pref))
        _establish(sim, speaker, peer_ip, asn)
    heard = []
    speaker.on_rib_change(
        lambda changes, peer_ip: heard.extend((peer_ip, change.prefix) for change in changes)
    )
    model = {}
    for step in steps:
        peer_ip, asn, local_pref = _SPEAKER_PEERS[step[1]]
        if step[0] == "down":
            expected = [key for key in model if key[0] == peer_ip]
            for key in expected:
                del model[key]
            speaker.peer_connection_lost(peer_ip)
            _establish(sim, speaker, peer_ip, asn)
        else:
            key = (peer_ip, _SPEAKER_PREFIXES[step[2]])
            sent = None  # a withdraw
            if step[0] == "announce":
                as_len, med, looped = step[3:]
                path = (asn,) * as_len + ((_SPEAKER_ASN,) if looped else ())
                sent = PathAttributes(next_hop=peer_ip, as_path=AsPath(path), med=med)
            speaker.deliver(peer_ip, UpdateMessage(prefix=key[1], attributes=sent))
            if sent is None or looped:
                # A withdraw, or a looped path (treated as one).
                expected = [key] if model.pop(key, None) is not None else []
            else:
                expected = [key]
                model[key] = sent if local_pref is None else sent.with_local_pref(local_pref)
        # One change per accepted announcement and per route actually
        # removed; none for a withdraw of a route the peer does not hold.
        assert sorted(heard) == sorted(expected)
        del heard[:]
        for prefix in _SPEAKER_PREFIXES:
            candidates = [
                Route(
                    prefix=prefix,
                    attributes=attributes,
                    source=RouteSource(peer_ip=peer, peer_asn=0, router_id=peer),
                )
                for (peer, held), attributes in model.items()
                if held == prefix
            ]
            assert [
                (route.source.peer_ip, route.attributes)
                for route in speaker.loc_rib.ranking(prefix)
            ] == [(route.source.peer_ip, route.attributes) for route in rank_routes(candidates)]
        for peer_ip, _, _ in _SPEAKER_PEERS:
            assert sorted(speaker.loc_rib.prefixes_from(peer_ip)) == sorted(
                prefix for (peer, prefix) in model if peer == peer_ip
            )


# ----------------------------------------------------------------------
# A train is processed as a train — and means what its members mean
# ----------------------------------------------------------------------
_TRAIN_CTRL = IPv4Address("10.0.0.100")
_TRAIN_ROUTER = IPv4Address("10.0.0.1")
_TRAIN_SUBNET = IPv4Prefix("10.0.0.0/24")
_TRAIN_ASNS = (64512, 65000)  # controller, router: a looped path holds both
#: (address, ASN, LOCAL_PREF on import) of the two feeding peers.
_TRAIN_PEERS = ((IPv4Address("10.0.0.2"), 65001, 200), (IPv4Address("10.0.0.3"), 65002, 100))
#: Own address / no ARP answer (resolves late, to a delete) / off-subnet.
_TRAIN_ODD_NEXT_HOPS = (None, IPv4Address("10.0.0.9"), IPv4Address("172.16.0.1"))
_TRAIN_PREFIXES = tuple(IPv4Prefix(f"20.{index}.0.0/16") for index in range(5))
_train_updates = st.one_of(
    st.tuples(
        st.just("announce"),
        st.integers(0, 4),  # prefix: five of them, so trains repeat prefixes
        st.integers(1, 3),  # AS-path length
        st.integers(0, 2),  # MED
        st.sampled_from((0, 0, 0, 1, 2)),  # next hop: mostly the peer itself
    ),
    st.tuples(st.just("looped"), st.integers(0, 4)),
    st.tuples(st.just("withdraw"), st.integers(0, 4)),
    st.tuples(st.just("duplicate")),
)
#: Consecutive UPDATEs of one session: ``(peer index, updates)``.
_train_segments = st.lists(
    st.tuples(st.integers(0, 1), st.lists(_train_updates, min_size=1, max_size=14)),
    min_size=1,
    max_size=6,
)


def _train_messages(segments):
    """``[(peer_ip, [UpdateMessage, ...]), ...]`` for drawn segments."""
    result = []
    for peer_index, steps in segments:
        peer_ip, asn, _ = _TRAIN_PEERS[peer_index]
        updates = []
        for step in steps:
            if step[0] == "duplicate":
                if updates:
                    updates.append(updates[-1])
                continue
            prefix = _TRAIN_PREFIXES[step[1]]
            if step[0] == "withdraw":
                updates.append(UpdateMessage.withdraw(prefix))
                continue
            if step[0] == "looped":
                path, med, next_hop = (asn,) + _TRAIN_ASNS, 0, peer_ip
            else:
                path, med = (asn,) * step[2], step[3]
                next_hop = _TRAIN_ODD_NEXT_HOPS[step[4]] or peer_ip
            updates.append(
                UpdateMessage.announce(
                    prefix, PathAttributes(next_hop=next_hop, as_path=AsPath(path), med=med)
                )
            )
        if updates:
            result.append((peer_ip, updates))
    return result


def _as_wire(updates):
    return updates[0] if len(updates) == 1 else UpdateTrain(updates=tuple(updates))


def _deliveries(messages, mode, rng):
    """The wire messages of one delivery mode, in order."""
    for peer_ip, updates in messages:
        if mode == "one by one":
            cuts = range(1, len(updates))
        elif mode == "one train":
            cuts = ()
        else:
            cuts = sorted(rng.sample(range(1, len(updates)), rng.randint(0, len(updates) - 1)))
        start = 0
        for cut in list(cuts) + [len(updates)]:
            yield peer_ip, _as_wire(updates[start:cut])
            start = cut


def _flatten_updates(messages):
    flat = []
    for message in messages:
        flat.extend(message.updates if isinstance(message, UpdateTrain) else [message])
    return flat


def _train_outcome(deliveries):
    """Everything downstream of the speakers after ``deliveries`` reached a
    real controller (relaying to its router) and a real standalone router
    (filling its FIB queue), all in one simulated instant."""
    sim = Simulator(seed=1)
    wire = Port("wire", 0)
    relayed = []

    def capture(frame, _port):
        payload = frame.payload
        if frame.ethertype is EtherType.BGP_TRANSPORT and payload.dst_ip == _TRAIN_ROUTER:
            if isinstance(payload.message, (UpdateMessage, UpdateTrain)):
                relayed.append(payload.message)

    wire.set_frame_handler(capture)
    controller = SuperchargedController(sim, "ctrl", ControllerConfig(
        ip=_TRAIN_CTRL, mac=MacAddress(0x64), subnet=_TRAIN_SUBNET, asn=_TRAIN_ASNS[0],
        router_id=_TRAIN_CTRL, router_ip=_TRAIN_ROUTER, router_asn=_TRAIN_ASNS[1],
        peers=[
            PeerSpec(ip=ip, asn=asn, switch_port=2 + index, mac=MacAddress(2 + index),
                     local_pref=local_pref)
            for index, (ip, asn, local_pref) in enumerate(_TRAIN_PEERS)
        ],
    ))
    controller.add_static_neighbor(_TRAIN_ROUTER, MacAddress(1))
    Link(sim, wire, controller.port, latency=1e-5)
    channel = ControllerChannel(sim, latency=0.001)
    flow_mods = []
    channel.connect_switch(flow_mods.append)
    controller.attach_switch(channel)
    controller.start()

    router = Router(sim, "r1", RouterConfig(asn=_TRAIN_ASNS[1], router_id=_TRAIN_ROUTER,
                                            bfd_interval=None))
    router.add_interface("core", MacAddress(1), _TRAIN_ROUTER, _TRAIN_SUBNET)
    Link(sim, Port("nowhere", 0), router.interfaces["core"].port, latency=1e-5)
    for index, (ip, asn, local_pref) in enumerate(_TRAIN_PEERS):
        router.add_static_neighbor(ip, MacAddress(2 + index))
        router.add_bgp_peer(
            PeerConfig(peer_ip=ip, peer_asn=asn, local_pref=local_pref, advertise=False)
        )
    for speaker in (controller.bgp, router.bgp):
        for ip, asn, _ in _TRAIN_PEERS:
            _establish(sim, speaker, ip, asn)
    _establish(sim, controller.bgp, _TRAIN_ROUTER, _TRAIN_ASNS[1])

    heard = {"controller": [], "router": []}
    controller.bgp.on_rib_change(lambda changes, peer: heard["controller"].extend(changes))
    router.bgp.on_rib_change(lambda changes, peer: heard["router"].extend(changes))
    applied = []
    router.fib_updater.on_entry_applied(lambda *entry: applied.append(entry))
    for peer_ip, message in deliveries:
        controller.bgp.deliver(peer_ip, message)
        router.bgp.deliver(peer_ip, message)
    queued = router.fib_updater.queue_depth
    sim.run_for(10.0)  # corks, REST calls, unanswered ARP and the FIB queue drain
    assert len(applied) >= queued and not router.fib_updater.is_busy
    return {
        "loc_ribs": [
            {prefix: speaker.loc_rib.ranking(prefix) for prefix in _TRAIN_PREFIXES}
            for speaker in (controller.bgp, router.bgp)
        ],
        "changes": heard,
        "relayed": _flatten_updates(relayed),
        "relay_counters": (controller.updates_relayed, controller.withdraws_relayed),
        "groups": sorted(group.key for group in controller.backup_groups.groups()),
        "flow_mods": flow_mods,
        "fib_queue_depth": queued,
        "fib_applied": applied,
        "members_counted": [
            speaker.peer_session(ip).updates_received
            for speaker in (controller.bgp, router.bgp)
            for ip, _, _ in _TRAIN_PEERS
        ],
    }


def _assert_delivery_modes_agree(messages, partition_seed):
    rng = random.Random(partition_seed)
    reference = _train_outcome(_deliveries(messages, "one by one", rng))
    for mode in ("one train", "random partition"):
        outcome = _train_outcome(_deliveries(messages, mode, rng))
        for key, expected in reference.items():
            assert outcome[key] == expected, (mode, key)


@settings(max_examples=60, deadline=None)
@given(_train_segments, st.integers(0, 2 ** 16))
def test_a_train_means_what_its_members_mean(segments, partition_seed):
    """One by one, as one train per segment, or under a random partition
    into trains: same Loc-RIBs, same ordered changes at a listener, same
    ordered UPDATEs out of the controller, same FIB queue.  The sub-train
    bound is shrunk to 3 so that drawn trains cross it several times."""
    with mock.patch.object(bgp_session, "SUB_TRAIN", 3):
        _assert_delivery_modes_agree(_train_messages(segments), partition_seed)


def test_a_train_means_what_its_members_mean_at_the_real_sub_train_bound():
    rng = random.Random(22)
    steps = [
        rng.choice([
            ("announce", rng.randrange(5), rng.randint(1, 3), rng.randrange(3),
             rng.choice((0, 0, 0, 1, 2))),
            ("withdraw", rng.randrange(5)),
            ("looped", rng.randrange(5)),
            ("duplicate",),
        ])
        for _ in range(2 * SUB_TRAIN + SUB_TRAIN // 2)
    ]
    cut = SUB_TRAIN + 5
    _assert_delivery_modes_agree(_train_messages([(0, steps[:cut]), (1, steps[cut:])]), 7)


@pytest.mark.parametrize(
    "value",
    [
        PathAttributes(next_hop=_TRAIN_ROUTER),
        Route(
            prefix=_TRAIN_PREFIXES[0],
            attributes=PathAttributes(next_hop=_TRAIN_ROUTER),
            source=RouteSource(peer_ip=_TRAIN_ROUTER, peer_asn=1, router_id=_TRAIN_ROUTER),
        ),
        RibChange(_TRAIN_PREFIXES[0], None, None, (), ()),
        FibWriteRequest(_TRAIN_PREFIXES[0], None),
    ],
    ids=lambda value: type(value).__name__,
)
def test_per_member_value_objects_stay_immutable(value):
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.extra = 1


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60))
def test_backup_group_count_never_exceeds_n_times_n_minus_one(pairs):
    peers = [IPv4Address(f"10.0.0.{10 + index}") for index in range(4)]
    allocator = VnhAllocator(IPv4Prefix("10.9.0.0/16"))
    manager = BackupGroupManager(allocator)
    loc_rib = LocRib()
    for index, (primary_index, backup_index) in enumerate(pairs):
        if primary_index == backup_index:
            continue
        prefix = IPv4Prefix(IPv4Address(0x0A000000 + (index << 8)), 24)
        for peer_index, pref in ((primary_index, 200), (backup_index, 100)):
            peer = peers[peer_index]
            route = Route(
                prefix=prefix,
                attributes=PathAttributes(
                    next_hop=peer, as_path=AsPath((65001,)), local_pref=pref
                ),
                source=RouteSource(peer_ip=peer, peer_asn=65001, router_id=peer),
            )
            manager.process_change(loc_rib.update(route))
    assert len(manager.groups()) <= len(peers) * (len(peers) - 1)
    # Every prefix with two distinct next hops maps to a group whose primary
    # is its best path's next hop.
    for group in manager.groups():
        for prefix in group.members:
            assert loc_rib.best(prefix).next_hop == group.primary


@given(st.integers(min_value=0, max_value=5000),
       st.floats(min_value=1e-6, max_value=1e-2, allow_nan=False),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_fib_batch_duration_is_affine_in_entry_count(entries, per_entry, first):
    config = FibUpdaterConfig(first_entry_latency=first, per_entry_latency=per_entry)
    duration = config.batch_duration(entries)
    if entries == 0:
        assert duration == 0.0
    else:
        assert duration >= first
        assert abs(duration - (first + (entries - 1) * per_entry)) < 1e-9


@given(st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=200))
def test_box_stats_are_ordered(samples):
    stats = BoxStats.from_samples(samples)
    assert stats.minimum <= stats.p5 <= stats.q1 <= stats.median
    assert stats.median <= stats.q3 <= stats.p95 <= stats.maximum
    # The mean is computed as sum/len, which can drift by a few ULPs when all
    # samples are (nearly) identical — allow that rounding.
    slack = 1e-9 * max(abs(stats.minimum), abs(stats.maximum), 1e-300)
    assert stats.minimum - slack <= stats.mean <= stats.maximum + slack


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=100),
       st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_percentile_is_bounded_by_extremes(samples, fraction):
    value = percentile(samples, fraction)
    assert min(samples) <= value <= max(samples)


@settings(max_examples=25)
@given(st.integers(min_value=1, max_value=120))
def test_vnh_allocator_never_reuses_live_addresses(count):
    allocator = VnhAllocator(IPv4Prefix("10.0.0.0/24"))
    allocated = [allocator.allocate() for _ in range(count)]
    vnhs = [vnh for vnh, _vmac in allocated]
    vmacs = [vmac for _vnh, vmac in allocated]
    assert len(set(vnhs)) == count
    assert len(set(vmacs)) == count
    assert all(allocator.pool.contains(vnh) for vnh in vnhs)
