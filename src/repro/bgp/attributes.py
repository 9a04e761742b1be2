"""BGP path attributes.

Only the attributes that influence the decision process (and therefore the
backup-group computation) are modelled: ORIGIN, AS_PATH, NEXT_HOP,
MULTI_EXIT_DISC and LOCAL_PREF.  Attributes are immutable;
"modification" helpers return new instances so routes can be shared safely
between RIBs.  The helpers run once or twice per relayed UPDATE, so
:class:`PathAttributes` is a ``NamedTuple`` (built at C speed, still
read-only) and they construct the copy positionally instead of going
through ``_replace``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Tuple

from repro.net.addresses import IPv4Address


class Origin(enum.IntEnum):
    """BGP ORIGIN attribute.  Lower is preferred by the decision process."""

    IGP = 0
    EGP = 1
    INCOMPLETE = 2


def _valid_asn(asn: int) -> int:
    asn = int(asn)
    if not 0 < asn < 2 ** 32:
        raise ValueError(f"invalid AS number: {asn}")
    return asn


class AsPath:
    """AS_PATH as a sequence of AS numbers (AS_SEQUENCE only).

    AS_SETs add nothing to the reproduced experiments and are omitted;
    the class still provides the operations BGP needs: length, loop
    detection and prepending.
    """

    __slots__ = ("_asns",)

    def __init__(self, asns: Tuple[int, ...] = ()) -> None:
        self._asns = tuple(map(_valid_asn, asns))

    @classmethod
    def trusted(cls, asns: Tuple[int, ...]) -> "AsPath":
        """A path over a tuple of AS numbers its caller drew from a valid
        range, built without re-checking each one (bulk feed generation)."""
        path = cls.__new__(cls)
        path._asns = asns
        return path

    @property
    def asns(self) -> Tuple[int, ...]:
        """The AS numbers, left-most (most recent) first."""
        return self._asns

    @property
    def length(self) -> int:
        """AS path length used by the decision process."""
        return len(self._asns)

    def contains(self, asn: int) -> bool:
        """Loop detection: whether ``asn`` already appears in the path."""
        return asn in self._asns

    def prepend(self, asn: int, count: int = 1) -> "AsPath":
        """Return a new path with ``asn`` prepended ``count`` times."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        # The rest of the path was validated when it was built.
        path = AsPath.__new__(AsPath)
        path._asns = (_valid_asn(asn),) * count + self._asns
        return path

    def __eq__(self, other: object) -> bool:
        return isinstance(other, AsPath) and other._asns == self._asns

    def __hash__(self) -> int:
        return hash(("aspath", self._asns))

    def __str__(self) -> str:
        return " ".join(str(asn) for asn in self._asns)

    def __repr__(self) -> str:
        return f"AsPath('{self}')"


class PathAttributes(NamedTuple):
    """The attribute set attached to a BGP route announcement."""

    next_hop: IPv4Address
    as_path: AsPath = AsPath()
    origin: Origin = Origin.IGP
    local_pref: int = 100
    med: int = 0

    def with_next_hop(self, next_hop: IPv4Address) -> "PathAttributes":
        """Copy with a rewritten NEXT_HOP — the controller's core trick."""
        return PathAttributes(next_hop, self.as_path, self.origin, self.local_pref, self.med)

    def with_local_pref(self, local_pref: int) -> "PathAttributes":
        """Copy with a different LOCAL_PREF (set by import policy)."""
        if local_pref < 0:
            raise ValueError(f"local_pref must be non-negative, got {local_pref}")
        return PathAttributes(self.next_hop, self.as_path, self.origin, local_pref, self.med)

    def prepended(self, asn: int, count: int = 1) -> "PathAttributes":
        """Copy with ``asn`` prepended to the AS path (done when exporting eBGP)."""
        return PathAttributes(
            self.next_hop, self.as_path.prepend(asn, count), self.origin, self.local_pref, self.med
        )
