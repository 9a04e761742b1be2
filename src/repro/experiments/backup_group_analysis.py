"""Backup-group count analysis (§2).

The paper observes that the total number of backup groups is bounded by
``n! / (n-2)! = n·(n−1)`` for a router with ``n`` peers (e.g. 90 groups for
10 peers), independent of the number of prefixes.  This experiment
empirically fills a router's table with synthetic routes spread across
``n`` peers and counts the groups actually created, confirming both the
bound and the typical much-smaller count.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence

from repro.bgp.rib import LocRib, Route, RouteSource
from repro.core.backup_groups import BackupGroupManager
from repro.core.vnh_allocator import VnhAllocator
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.routes.prefix_gen import PrefixGenerator
from repro.routes.ris_feed import synthetic_full_table
from repro.sim.random import SeededRandom


class BackupGroupCount(NamedTuple):
    """Observed vs theoretical group counts for one peer count."""

    num_peers: int
    num_prefixes: int
    observed_groups: int

    @property
    def theoretical_bound(self) -> int:
        """The paper's n·(n−1) bound."""
        return self.num_peers * (self.num_peers - 1)

    @property
    def within_bound(self) -> bool:
        """Whether the observation respects the bound."""
        return self.observed_groups <= self.theoretical_bound


def backup_group_counts(
    peer_counts: Sequence[int] = (2, 3, 5, 10),
    num_prefixes: int = 2_000,
    paths_per_prefix: int = 3,
    seed: int = 7,
) -> List[BackupGroupCount]:
    """Count backup groups for tables announced by varying numbers of peers."""
    results = []
    for num_peers in peer_counts:
        results.append(
            _count_for(num_peers, num_prefixes, paths_per_prefix, seed)
        )
    return results


def _count_for(
    num_peers: int, num_prefixes: int, paths_per_prefix: int, seed: int
) -> BackupGroupCount:
    random = SeededRandom(seed + num_peers)
    peers = [IPv4Address(f"10.0.0.{10 + index}") for index in range(num_peers)]
    prefixes = PrefixGenerator(seed=seed).generate(num_prefixes)
    loc_rib = LocRib()
    manager = BackupGroupManager(VnhAllocator(IPv4Prefix("10.9.0.0/16")))
    per_peer_feeds = {
        peer: synthetic_full_table(
            num_prefixes, seed=seed + index, provider_asn=65001 + index, prefixes=prefixes
        )
        for index, peer in enumerate(peers)
    }
    count = min(paths_per_prefix, num_peers)
    for prefix_index, prefix in enumerate(prefixes):
        announcing_peers = random.sample(peers, count)
        for peer in announcing_peers:
            feed_route = per_peer_feeds[peer].routes[prefix_index]
            route = Route(
                prefix=prefix,
                attributes=feed_route.to_update(peer).attributes,
                source=RouteSource(peer_ip=peer, peer_asn=65001, router_id=peer),
            )
            change = loc_rib.update(route)
            manager.process_change(change)
    return BackupGroupCount(
        num_peers=num_peers,
        num_prefixes=num_prefixes,
        observed_groups=len(manager.groups()),
    )
