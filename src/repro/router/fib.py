"""Forwarding Information Base structures.

Two FIB organisations are provided, mirroring the paper's Figure 1/2
discussion:

* :class:`FlatFib` — every prefix stores its own L2 adjacency (next-hop
  MAC + output port).  Rewriting the adjacency of many prefixes therefore
  requires touching every entry, which is why the standalone router
  converges linearly in the number of prefixes.
* :class:`HierarchicalFib` — prefixes store a *pointer* into a shared
  adjacency table (BGP PIC).  Repointing one adjacency instantly redirects
  every dependent prefix; this is the expensive-hardware alternative the
  supercharged design replicates across two devices.

Both keep their per-prefix state in one :class:`LpmTable` and nowhere
else, so a FIB write is one dict store.  The table is one
``{masked network: (prefix, value)}`` dict per active mask length;
``lookup`` masks the address to each active length, longest first, and
returns the first hit.  That is at most 32 dict probes and in practice
~7 (the lengths a provider edge table uses).  Measured against a
path-compressed trie on 100k prefixes it is faster on insert, lookup,
miss and churn, also with all of /1–/32 active, at under half the
memory (docs/performance.md has the table).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, NamedTuple, Optional, Tuple, TypeVar

from repro.net.addresses import MASKS, IPv4Address, IPv4Prefix, MacAddress

ValueT = TypeVar("ValueT")


class Adjacency(NamedTuple):
    """An L2 next hop: destination MAC plus output interface name."""

    mac: MacAddress
    interface: str
    next_hop_ip: Optional[IPv4Address] = None


class FibEntry(NamedTuple):
    """One prefix's forwarding state as seen by the data plane."""

    prefix: IPv4Prefix
    adjacency: Adjacency
    updated_at: float = 0.0


class LpmTable(Generic[ValueT]):
    """IPv4 prefix → value map with longest-prefix-match lookup."""

    def __init__(self) -> None:
        # plen -> {masked network -> (prefix, value)}; empty buckets are
        # dropped so ``_lengths`` lists exactly the lengths to probe.
        self._buckets: Dict[int, Dict[int, Tuple[IPv4Prefix, ValueT]]] = {}
        # Active mask lengths, longest first (the LPM probe order).
        self._lengths: List[int] = []

    def insert(self, prefix: IPv4Prefix, value: ValueT) -> bool:
        """Insert or replace; returns ``True`` when the prefix was new."""
        net, plen = prefix.as_tuple()
        bucket = self._buckets.get(plen)
        if bucket is None:
            bucket = self._buckets[plen] = {}
            self._lengths.append(plen)
            self._lengths.sort(reverse=True)
        is_new = net not in bucket
        bucket[net] = (prefix, value)
        return is_new

    def remove(self, prefix: IPv4Prefix) -> bool:
        """Remove the exact prefix; returns whether it was present."""
        net, plen = prefix.as_tuple()
        bucket = self._buckets.get(plen)
        if bucket is None or bucket.pop(net, None) is None:
            return False
        if not bucket:
            del self._buckets[plen]
            self._lengths.remove(plen)
        return True

    def exact(self, prefix: IPv4Prefix) -> Optional[ValueT]:
        """Value stored for exactly this prefix, if any."""
        net, plen = prefix.as_tuple()
        bucket = self._buckets.get(plen)
        if bucket is None:
            return None
        item = bucket.get(net)
        return item[1] if item is not None else None

    def lookup(self, address: IPv4Address) -> Optional[Tuple[IPv4Prefix, ValueT]]:
        """Longest-prefix match for ``address``."""
        buckets = self._buckets
        masks = MASKS
        for plen in self._lengths:
            item = buckets[plen].get(address & masks[plen])
            if item is not None:
                return item
        return None

    def values(self) -> Iterator[ValueT]:
        """Every stored value, longest mask length first."""
        for plen in self._lengths:
            for _prefix, value in self._buckets[plen].values():
                yield value

    def __len__(self) -> int:
        return sum(map(len, self._buckets.values()))

    def __contains__(self, prefix: IPv4Prefix) -> bool:
        net, plen = prefix.as_tuple()
        bucket = self._buckets.get(plen)
        return bucket is not None and net in bucket


class FlatFib:
    """Flat FIB: prefix → private adjacency copy (paper Figure 1)."""

    def __init__(self) -> None:
        self._table: LpmTable[FibEntry] = LpmTable()

    # ------------------------------------------------------------------
    # Mutation (the data-plane write; timing is owned by the FibUpdater)
    # ------------------------------------------------------------------
    def write(self, prefix: IPv4Prefix, adjacency: Adjacency, now: float = 0.0) -> FibEntry:
        """Install or overwrite the entry for ``prefix``."""
        entry = FibEntry(prefix=prefix, adjacency=adjacency, updated_at=now)
        self._table.insert(prefix, entry)
        return entry

    def delete(self, prefix: IPv4Prefix) -> bool:
        """Remove the entry for ``prefix``; returns whether it existed."""
        return self._table.remove(prefix)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, address: IPv4Address) -> Optional[FibEntry]:
        """Longest-prefix-match forwarding decision for ``address``."""
        result = self._table.lookup(address)
        return result[1] if result is not None else None

    def entry(self, prefix: IPv4Prefix) -> Optional[FibEntry]:
        """Exact-match entry for ``prefix``."""
        return self._table.exact(prefix)

    def entries(self) -> Iterator[FibEntry]:
        """Iterate all installed entries."""
        return self._table.values()

    def __len__(self) -> int:
        return len(self._table)


class HierarchicalFib:
    """PIC-style hierarchical FIB: prefix → pointer → shared adjacency.

    Used as the "expensive line-card" baseline in the ablation experiments:
    repointing a shared adjacency converges every dependent prefix at once.
    """

    def __init__(self) -> None:
        #: prefix → (pointer id, time of the write).
        self._table: LpmTable[Tuple[int, float]] = LpmTable()
        self._adjacencies: Dict[int, Adjacency] = {}
        self._next_pointer = 1

    # ------------------------------------------------------------------
    # Adjacency (pointer) management
    # ------------------------------------------------------------------
    def add_adjacency(self, adjacency: Adjacency) -> int:
        """Register a shared adjacency, returning its pointer id."""
        pointer = self._next_pointer
        self._next_pointer += 1
        self._adjacencies[pointer] = adjacency
        return pointer

    def repoint(self, pointer: int, adjacency: Adjacency) -> None:
        """Atomically replace the adjacency behind ``pointer``.

        This is the constant-time convergence operation PIC provides.
        """
        if pointer not in self._adjacencies:
            raise KeyError(f"unknown adjacency pointer {pointer}")
        self._adjacencies[pointer] = adjacency

    # ------------------------------------------------------------------
    # Prefix entries
    # ------------------------------------------------------------------
    def write(self, prefix: IPv4Prefix, pointer: int, now: float = 0.0) -> None:
        """Install or move ``prefix`` onto ``pointer``."""
        if pointer not in self._adjacencies:
            raise KeyError(f"unknown adjacency pointer {pointer}")
        self._table.insert(prefix, (pointer, now))

    def delete(self, prefix: IPv4Prefix) -> bool:
        """Remove ``prefix``; returns whether it existed."""
        return self._table.remove(prefix)

    def lookup(self, address: IPv4Address) -> Optional[FibEntry]:
        """LPM forwarding decision (pointer resolved to its adjacency)."""
        result = self._table.lookup(address)
        if result is None:
            return None
        prefix, (pointer, updated_at) = result
        return FibEntry(
            prefix=prefix, adjacency=self._adjacencies[pointer], updated_at=updated_at
        )

    def entry(self, prefix: IPv4Prefix) -> Optional[FibEntry]:
        """Exact-match entry for ``prefix`` (pointer resolved)."""
        stored = self._table.exact(prefix)
        if stored is None:
            return None
        pointer, updated_at = stored
        return FibEntry(
            prefix=prefix, adjacency=self._adjacencies[pointer], updated_at=updated_at
        )

    def __len__(self) -> int:
        return len(self._table)
