"""Property-based tests (hypothesis) on the core data structures and
invariants: addressing, LPM, the decision process, backup groups and the
FIB updater's timing model."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.decision import rank_routes
from repro.bgp.rib import LocRib, Route, RouteSource
from repro.core.backup_groups import BackupGroupManager
from repro.core.vnh_allocator import VnhAllocator
from repro.experiments.stats import BoxStats, percentile
from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.router.fib import LpmTable
from repro.router.fib_updater import FibUpdaterConfig

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
    assert prefix.contains(prefix.first_address)
    assert prefix.contains(prefix.last_address)
    assert prefix.contains(prefix)


@given(prefixes, ips)
def test_prefix_containment_matches_mask_arithmetic(prefix, address):
    expected = (address.value & IPv4Prefix.mask_for(prefix.length)) == prefix.network.value
    assert prefix.contains(address) == expected


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


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60))
def test_backup_group_count_never_exceeds_n_times_n_minus_one(pairs):
    peers = [IPv4Address(f"10.0.0.{10 + index}") for index in range(4)]
    allocator = VnhAllocator(IPv4Prefix("10.9.0.0/16"))
    manager = BackupGroupManager(allocator)
    loc_rib = LocRib(rank_routes)
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
        for prefix in group.prefixes:
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
