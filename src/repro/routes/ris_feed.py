"""Synthetic full-table BGP feeds and update churn streams.

:func:`synthetic_full_table` produces the per-provider feed loaded into R2
and R3 (same prefixes, provider-specific next hop and AS path head), and
:func:`churn_stream` produces the "2 × 500 k updates from two different
peers" workload used by the controller micro-benchmark.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence

from repro.bgp.attributes import AsPath, Origin, PathAttributes
from repro.bgp.messages import UpdateMessage
from repro.net.addresses import IPv4Address, IPv4Prefix
from repro.routes.prefix_gen import PrefixGenerator
from repro.sim.random import SeededRandom


class FeedRoute(NamedTuple):
    """One route of a synthetic feed (MRT-record-like view)."""

    prefix: IPv4Prefix
    as_path: AsPath
    origin: Origin
    med: int

    def attributes(self, next_hop: IPv4Address) -> PathAttributes:
        """The route's path attributes as announced with ``next_hop``."""
        return PathAttributes(
            next_hop=next_hop,
            as_path=self.as_path,
            origin=self.origin,
            med=self.med,
        )

    def to_update(self, next_hop: IPv4Address) -> UpdateMessage:
        """Convert to an UPDATE announced with the given next hop."""
        return UpdateMessage.announce(self.prefix, self.attributes(next_hop))


class RouteFeed:
    """A full table: an ordered list of routes sharing a generation seed."""

    __slots__ = ("routes", "seed")

    def __init__(self, routes: List[FeedRoute], seed: int) -> None:
        self.routes = routes
        self.seed = seed

    def __len__(self) -> int:
        return len(self.routes)

    def updates(self, next_hop: IPv4Address) -> List[UpdateMessage]:
        """All routes as UPDATEs with the provider's next hop."""
        return [route.to_update(next_hop) for route in self.routes]

    def prefixes(self) -> List[IPv4Prefix]:
        """All prefixes in feed order."""
        return [route.prefix for route in self.routes]


def synthetic_full_table(
    count: int,
    seed: int = 0,
    provider_asn: int = 65001,
    prefixes: Optional[Sequence[IPv4Prefix]] = None,
) -> RouteFeed:
    """Generate a synthetic full table of ``count`` routes.

    Passing the same ``prefixes`` (e.g. generated once) for two providers
    reproduces the paper's setup where R2 and R3 advertise identical
    prefix sets; only the AS paths and MEDs differ per provider seed.
    """
    random = SeededRandom(seed)
    if prefixes is None:
        prefixes = PrefixGenerator(seed=seed).generate(count)
    elif len(prefixes) < count:
        raise ValueError(f"need at least {count} prefixes, got {len(prefixes)}")
    # The provider ASN is checked once per table; the hops are drawn from
    # a valid range, so the paths are built without re-checking them.
    (provider_asn,) = AsPath((provider_asn,)).asns
    path_of = AsPath.trusted
    roll = random.random
    path_lengths = random.integers(1, 5).__next__
    # Random hops stay strictly below every ASN the testbeds reserve for
    # their own devices (64512 controller, 65000+ routers): a synthetic
    # path that contained a device ASN would be silently dropped by that
    # device's BGP loop prevention and the scenario could never converge.
    hops = random.integers(1000, 64000)
    meds = random.integers(0, 10).__next__
    # Arguments evaluate left to right: path length, hops, origin, MED —
    # one route's draws in the order the pinned table digests fix.
    routes = [
        FeedRoute(
            prefix,
            path_of((provider_asn, *islice(hops, path_lengths()))),
            Origin.IGP if roll() < 0.9 else Origin.INCOMPLETE,
            meds(),
        )
        for prefix in islice(prefixes, count)
    ]
    return RouteFeed(routes=routes, seed=seed)


def churn_stream(
    feed: RouteFeed,
    next_hop: IPv4Address,
    withdraw_fraction: float = 0.0,
    seed: int = 1,
) -> Iterator[UpdateMessage]:
    """Yield the feed as a stream of UPDATEs, optionally mixing withdraws.

    With ``withdraw_fraction > 0`` a corresponding share of prefixes is
    first announced and later withdrawn, modelling route churn.  Each
    withdraw is interleaved into the stream at a seed-stable position
    *after* its announcement (never batched at the end), so replaying the
    stream exercises announce/withdraw mixing the way a recorded feed does.
    """
    if not 0.0 <= withdraw_fraction <= 1.0:
        raise ValueError(f"withdraw_fraction must be in [0, 1], got {withdraw_fraction}")
    random = SeededRandom(seed)
    selected: List[IPv4Prefix] = []
    positions: List[int] = []
    if withdraw_fraction > 0:
        for index, route in enumerate(feed.routes):
            if random.random() < withdraw_fraction:
                selected.append(route.prefix)
                positions.append(index)
    total = len(feed.routes)
    # slot p holds the withdraws emitted right after the p-th announcement
    # (1-based); a withdraw's slot is drawn uniformly from the rest of the
    # stream, so the mix spreads over the whole replay.
    slots: Dict[int, List[IPv4Prefix]] = {}
    drawn = random.randints((index + 1, total) for index in positions)
    for prefix, slot in zip(selected, drawn):
        slots.setdefault(slot, []).append(prefix)
    # Messages are built in place, as ``ScenarioLab.load_feeds`` builds its
    # attributes: one constructor frame per UPDATE.
    for index, (prefix, as_path, origin, med) in enumerate(feed.routes, 1):
        yield UpdateMessage(prefix, PathAttributes(next_hop, as_path, origin, med=med))
        for withdrawn in slots.get(index, ()):
            yield UpdateMessage(withdrawn)
