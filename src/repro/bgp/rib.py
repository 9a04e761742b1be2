"""Routing Information Bases.

Two structures hold a speaker's route state:

* :class:`LocRib` — for every prefix, *all* known routes ranked by the
  decision process (position 0 is the best path, position 1 the backup).
  Keeping the full ranked list — rather than only the winner — is exactly
  what the supercharged controller needs to compute backup groups.  It is
  the only store of learned routes: a route is keyed by (prefix, source
  peer), so "what did this peer send" is a query over it
  (:meth:`LocRib.prefixes_from`), not a second per-peer table.
* :class:`AdjRibOut` — what has been advertised to one peer, so the
  speaker can suppress duplicate announcements and emit withdraws.

:class:`CompactPeerRib` is the full-DFZ scale companion to
:class:`LocRib`: a multi-peer RIB that stores one int->bitmask dict entry
per prefix, keyed by its plain int code (a prefix is that int, so either
works as the key) — no Route/PathAttributes objects, no per-route storage
at all — for the million-route planner pipeline (streaming MRT ingest,
sharded group planning, the scale benches) where the simulator's
object-based RIBs would dominate RSS.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.bgp.attributes import PathAttributes
from repro.bgp.decision import rank_routes
from repro.net.addresses import IPv4Address, IPv4Prefix


class RouteSource(NamedTuple):
    """Identity of the peer a route was learned from."""

    peer_ip: IPv4Address
    peer_asn: int
    router_id: IPv4Address
    is_ebgp: bool = True


class Route(NamedTuple):
    """One path towards one prefix, as stored in the RIBs (a read-only
    ``NamedTuple``, like :class:`RibChange`: one is built per UPDATE)."""

    prefix: IPv4Prefix
    attributes: PathAttributes
    source: RouteSource
    learned_at: float = 0.0

    @property
    def next_hop(self) -> IPv4Address:
        """Convenience accessor for the NEXT_HOP attribute."""
        return self.attributes.next_hop


class RibChange(NamedTuple):
    """Outcome of inserting/removing a route in the Loc-RIB for one prefix.

    ``old_best``/``new_best`` capture the winner before and after, while
    ``old_ranking``/``new_ranking`` capture the full ordered lists (what
    Listing 1 consumes to detect backup-group changes).
    """

    prefix: IPv4Prefix
    old_best: Optional[Route]
    new_best: Optional[Route]
    old_ranking: Tuple[Route, ...]
    new_ranking: Tuple[Route, ...]

    @property
    def best_changed(self) -> bool:
        """Whether the best path changed (including appearing/disappearing)."""
        return self.old_best != self.new_best


class AdjRibOut:
    """Routes advertised to a single peer, keyed by prefix."""

    def __init__(self, peer_ip: IPv4Address) -> None:
        self.peer_ip = peer_ip
        self._advertised: Dict[IPv4Prefix, PathAttributes] = {}

    def record_announce(self, prefix: IPv4Prefix, attributes: PathAttributes) -> bool:
        """Record an announcement; returns ``False`` if it is a duplicate."""
        if self._advertised.get(prefix) == attributes:
            return False
        self._advertised[prefix] = attributes
        return True

    def record_withdraw(self, prefix: IPv4Prefix) -> bool:
        """Record a withdraw; returns ``False`` if nothing was advertised."""
        return self._advertised.pop(prefix, None) is not None

    def advertised(self, prefix: IPv4Prefix) -> Optional[PathAttributes]:
        """Attributes last advertised for ``prefix``, if any."""
        return self._advertised.get(prefix)


class LocRib:
    """All known routes per prefix, kept ranked by the decision process."""

    def __init__(self) -> None:
        #: prefix -> its routes, best first; the stored tuple *is* the
        #: ranking a :class:`RibChange` carries, so a change copies nothing.
        self._routes: Dict[IPv4Prefix, Tuple[Route, ...]] = {}

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def update(self, route: Route) -> RibChange:
        """Insert (or replace, keyed by source peer) a route and re-rank."""
        prefix = route.prefix
        old = self._routes.get(prefix, ())
        peer_ip = route.source.peer_ip
        others = [r for r in old if r.source.peer_ip != peer_ip]
        if others:
            others.append(route)
            ranked = tuple(rank_routes(others))
        else:
            ranked = (route,)  # a first or only route needs no sort
        self._routes[prefix] = ranked
        return RibChange(prefix, old[0] if old else None, ranked[0], old, ranked)

    def withdraw(self, prefix: IPv4Prefix, peer_ip: IPv4Address) -> RibChange:
        """Remove the route learned from ``peer_ip`` for ``prefix``; the
        others keep their order (removing cannot reorder the rest)."""
        old = self._routes.get(prefix, ())
        ranked = tuple(r for r in old if r.source.peer_ip != peer_ip)
        if ranked:
            self._routes[prefix] = ranked
        else:
            self._routes.pop(prefix, None)
        return RibChange(
            prefix, old[0] if old else None, ranked[0] if ranked else None, old, ranked
        )

    def withdraw_peer(self, peer_ip: IPv4Address) -> List[RibChange]:
        """Remove every route learned from ``peer_ip`` (session loss)."""
        return [self.withdraw(prefix, peer_ip) for prefix in self.prefixes_from(peer_ip)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def best(self, prefix: IPv4Prefix) -> Optional[Route]:
        """The best path for ``prefix``, if any."""
        routes = self._routes.get(prefix)
        return routes[0] if routes else None

    def ranking(self, prefix: IPv4Prefix) -> Tuple[Route, ...]:
        """All known paths for ``prefix`` in preference order."""
        return self._routes.get(prefix, ())

    def prefixes(self) -> Iterator[IPv4Prefix]:
        """Iterate all prefixes with at least one path."""
        return iter(self._routes.keys())

    def prefixes_from(self, peer_ip: IPv4Address) -> List[IPv4Prefix]:
        """The prefixes ``peer_ip`` currently has a route for, in the
        order they entered the RIB."""
        return [
            prefix
            for prefix, routes in self._routes.items()
            if any(route.source.peer_ip == peer_ip for route in routes)
        ]

    def __len__(self) -> int:
        return len(self._routes)


class CompactPeerRib:
    """Multi-peer RIB keyed by prefix code (the scale path).

    Peers are registered once, *best-first*: a prefix's ranking is simply
    the registration-ordered tuple of the peers currently announcing it,
    mirroring the strictly ordered LOCAL_PREF scheme every scenario uses
    (decision-process attributes never reorder providers there).  Storage
    is a single dict mapping each int code to a bitmask of announcing
    peers — one entry per distinct prefix, no per-route object, so a 1M
    two-peer table fits in well under 100 MB of RSS instead of several
    GB.  Rankings are interned per bitmask (with n peers there are at
    most 2^n distinct patterns, in practice a handful), so computing a
    ranking is a dict hit and every equal ranking is the *same* tuple
    object — downstream consumers (the planner's deferral stream, the
    engine's liveness decision) can cache by tuple identity and never
    allocate per prefix.

    The change-shaped output (``iter_withdraw_peer``) yields ranked
    next-hop tuples of the shared peer :class:`IPv4Address` objects,
    exactly what :class:`~repro.supercharge.planner.RemoteGroupPlanner`
    keys groups by; codes iterate sorted, so downstream consumers stay
    deterministic.
    """

    def __init__(self) -> None:
        self._peer_ips: List[IPv4Address] = []
        self._peer_index: Dict[IPv4Address, int] = {}
        self._masks: Dict[int, int] = {}  # code -> announcing-peer bitmask
        self._ranking_cache: Dict[int, Tuple[IPv4Address, ...]] = {0: ()}

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    def add_peer(self, peer_ip: IPv4Address) -> int:
        """Register a peer (in preference order, best first); returns its
        index.  Re-registering returns the existing index."""
        index = self._peer_index.get(peer_ip)
        if index is not None:
            return index
        index = len(self._peer_ips)
        self._peer_index[peer_ip] = index
        self._peer_ips.append(peer_ip)
        return index

    def _ranking(self, mask: int) -> Tuple[IPv4Address, ...]:
        ranking = self._ranking_cache.get(mask)
        if ranking is None:
            ranking = tuple(
                self._peer_ips[index]
                for index in range(len(self._peer_ips))
                if mask & (1 << index)
            )
            self._ranking_cache[mask] = ranking
        return ranking

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def load(self, code: int, peer: int) -> None:
        """Peer ``peer`` announces ``code`` (the table-build path: no
        change output, nothing there consumes old/new rankings)."""
        self._masks[code] = self._masks.get(code, 0) | (1 << peer)

    def iter_withdraw_peer(
        self, peer: int
    ) -> Iterator[Tuple[int, Tuple[IPv4Address, ...]]]:
        """Withdraw *everything* peer ``peer`` announces (remote session
        loss), yielding ``(code, new_ranking)`` in sorted-code order —
        the input stream of a remote-failure planner flush.  The peer's
        routes drain as the iterator advances; no change-object list is
        ever built."""
        bit = 1 << peer
        masks = self._masks
        cache = self._ranking_cache
        drained = sorted(code for code, mask in masks.items() if mask & bit)
        for code in drained:
            new_mask = masks[code] & ~bit
            if new_mask:
                masks[code] = new_mask
            else:
                del masks[code]
            ranking = cache.get(new_mask)
            if ranking is None:
                ranking = self._ranking(new_mask)
            yield code, ranking

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def route_count(self) -> int:
        """Total (prefix, peer) entries."""
        # bin().count over int.bit_count(): the latter is Python 3.10+
        # and this repo supports 3.9.
        return sum(bin(mask).count("1") for mask in self._masks.values())

    def __len__(self) -> int:
        return len(self._masks)
