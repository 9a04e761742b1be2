"""The BGP best-path decision process.

The paper extended ExaBGP "with a complete implementation of the BGP
Decision Process"; this module is that implementation.  Routes are ranked
with the standard tie-breaking ladder:

1. Highest LOCAL_PREF.
2. Shortest AS_PATH.
3. Lowest ORIGIN (IGP < EGP < INCOMPLETE).
4. Lowest MED (compared across all routes — "always-compare-med" — which
   keeps the ranking a total order; per-neighbor MED comparison is not a
   total order and would make backup ranking ambiguous).
5. eBGP preferred over iBGP.
6. Lowest router id.
7. Lowest peer address.

Every next hop is on a connected subnet, so the RFC 4271 step "lowest IGP
cost to the next hop" would compare equal costs and is left out.

Ranking the *entire* list — not just picking a winner — is what lets the
supercharged controller read off (primary, backup) pairs directly.  The
ladder is spelled once, in :func:`_preference_key`; :func:`rank_routes`
is what :class:`~repro.bgp.rib.LocRib` ranks with, and it has no knobs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Tuple

if TYPE_CHECKING:  # repro.bgp.rib ranks with this module
    from repro.bgp.rib import Route


def _preference_key(route: Route) -> Tuple:
    """Sort key implementing the decision ladder (ascending sort = best first)."""
    return (
        -route.attributes.local_pref,
        route.attributes.as_path.length,
        int(route.attributes.origin),
        route.attributes.med,
        0 if route.source.is_ebgp else 1,
        route.source.router_id,
        route.source.peer_ip,
    )


def rank_routes(routes: Iterable[Route]) -> List[Route]:
    """Return the routes ordered best-first according to the decision process."""
    return sorted(routes, key=_preference_key)

