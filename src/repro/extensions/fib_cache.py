"""FIB-cache supercharging (ViAggre-style, paper §1).

The router's FIB is too small for a full table, so it only holds coarse
*covering* prefixes whose virtual next hop tags the traffic; the SDN
switch holds exact-match rules for the *popular* specific prefixes and
rewrites them to the correct real next hop, while unpopular specifics fall
back to the covering prefix's default next hop.

The class below decides the split (which prefixes live where), programs
the two tables, and accounts for hit rates so the benefit can be measured
(correctly-routed share of traffic vs router-FIB size).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress
from repro.router.fib import Adjacency, FlatFib, LpmTable


@dataclass(frozen=True)
class CacheDecision:
    """Placement decision for one specific prefix."""

    prefix: IPv4Prefix
    in_switch: bool
    next_hop: IPv4Address


@dataclass
class FibCacheStats:
    """Traffic accounting of the split FIB."""

    switch_hits: int = 0
    router_fallbacks: int = 0
    misrouted: int = 0

    @property
    def total(self) -> int:
        """Total number of forwarding decisions evaluated."""
        return self.switch_hits + self.router_fallbacks

    @property
    def correct_fraction(self) -> float:
        """Share of lookups that reached the intended next hop."""
        if self.total == 0:
            return 1.0
        return 1.0 - (self.misrouted / self.total)


class FibCacheSupercharger:
    """Splits a full table between a small router FIB and a switch cache.

    Parameters
    ----------
    router_capacity:
        Maximum number of (covering) entries the router FIB may hold.
    switch_capacity:
        Maximum number of exact-match cache rules in the switch.
    covering_length:
        Mask length of the covering aggregates installed in the router.
    """

    def __init__(
        self,
        router_capacity: int,
        switch_capacity: int,
        covering_length: int = 10,
    ) -> None:
        if router_capacity <= 0 or switch_capacity <= 0:
            raise ValueError("capacities must be positive")
        if not 0 <= covering_length <= 24:
            raise ValueError(f"covering_length out of range: {covering_length}")
        self.router_capacity = router_capacity
        self.switch_capacity = switch_capacity
        self.covering_length = covering_length
        #: Covering prefix -> default (fallback) next hop.
        self.router_fib: LpmTable[IPv4Address] = LpmTable()
        #: Specific prefix -> real next hop (the switch cache).
        self.switch_cache: LpmTable[IPv4Address] = LpmTable()
        self._truth: LpmTable[IPv4Address] = LpmTable()
        self.stats = FibCacheStats()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(
        self,
        routes: Sequence[Tuple[IPv4Prefix, IPv4Address]],
        popularity: Optional[Dict[IPv4Prefix, float]] = None,
    ) -> List[CacheDecision]:
        """Decide where every route lives.

        ``popularity`` (higher = more traffic) drives which specifics get a
        switch rule; missing values default to 0.
        """
        popularity = popularity or {}
        decisions: List[CacheDecision] = []
        self.router_fib = LpmTable()
        self.switch_cache = LpmTable()
        self._truth = LpmTable()
        for prefix, next_hop in routes:
            self._truth.insert(prefix, next_hop)
            covering = self._covering_of(prefix)
            if covering not in self.router_fib:
                if len(self.router_fib) >= self.router_capacity:
                    raise ValueError(
                        "router FIB capacity exceeded even by covering prefixes; "
                        "use a shorter covering_length"
                    )
                self.router_fib.insert(covering, next_hop)
        ranked = sorted(routes, key=lambda item: -popularity.get(item[0], 0.0))
        for prefix, next_hop in ranked:
            in_switch = False
            if len(self.switch_cache) < self.switch_capacity:
                fallback = self.router_fib.exact(self._covering_of(prefix))
                if fallback != next_hop:
                    self.switch_cache.insert(prefix, next_hop)
                    in_switch = True
            decisions.append(
                CacheDecision(prefix=prefix, in_switch=in_switch, next_hop=next_hop)
            )
        return decisions

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def forward(self, destination: IPv4Address) -> Optional[IPv4Address]:
        """Resolve a destination through the split FIB, recording statistics.

        Returns the next hop the combined system would use, or ``None``
        when not even a covering prefix matches.
        """
        truth = self._truth.lookup(destination)
        intended = truth[1] if truth is not None else None
        cached = self.switch_cache.lookup(destination)
        if cached is not None:
            self.stats.switch_hits += 1
            if intended is not None and cached[1] != intended:
                self.stats.misrouted += 1
            return cached[1]
        fallback = self.router_fib.lookup(destination)
        if fallback is None:
            return None
        self.stats.router_fallbacks += 1
        if intended is not None and fallback[1] != intended:
            self.stats.misrouted += 1
        return fallback[1]

    def router_entries(self) -> int:
        """Number of entries consumed in the router FIB."""
        return len(self.router_fib)

    def switch_entries(self) -> int:
        """Number of cache rules consumed in the switch."""
        return len(self.switch_cache)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _covering_of(self, prefix: IPv4Prefix) -> IPv4Prefix:
        length = min(self.covering_length, prefix.length)
        return IPv4Prefix(prefix.network, length)
