"""Virtual next hop / virtual MAC allocation.

Each backup group gets a (VNH, VMAC) pair: the VNH is an unused address in
the subnet shared by the supercharged router and the SDN switch (so the
router can ARP for it), the VMAC is a locally administered MAC derived
deterministically from the allocation index.

Determinism matters: the paper's reliability argument is that redundant
controller replicas need no state synchronisation because they run the
same deterministic algorithm over the same inputs — which requires that
the *k*-th allocated group gets the same (VNH, VMAC) on every replica.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.net.addresses import IPv4Address, IPv4Prefix, MacAddress


class VnhAllocationError(RuntimeError):
    """Raised when the VNH pool is exhausted."""


#: Default base for virtual MACs: locally administered, unicast.
DEFAULT_VMAC_BASE = 0x02_00_5E_00_00_00


class VnhAllocator:
    """Allocates (VNH, VMAC) pairs from a pool prefix.

    Parameters
    ----------
    pool:
        Prefix the VNHs are taken from.  Must lie inside the subnet the
        supercharged router shares with the switch.
    reserved:
        Addresses never to hand out (the router's and peers' own IPs).
    vmac_base:
        Integer base of the virtual MAC range.
    """

    def __init__(
        self,
        pool: IPv4Prefix,
        reserved: Optional[Set[IPv4Address]] = None,
        vmac_base: int = DEFAULT_VMAC_BASE,
    ) -> None:
        self.pool = pool
        self._vmac_base = vmac_base
        # All internal state is ints (an address is its value): at DFZ
        # scale the allocator sits on the group-churn path, and the pool
        # scan allocates no object per candidate.  Addresses and MACs are
        # materialised only at the API edge.
        self._reserved: Set[int] = set(reserved or ())
        self._pool_net = pool.network
        self._pool_last = pool.last_address
        self._pool_size = pool.num_addresses
        self._allocated: Dict[int, int] = {}  # vnh value -> vmac value
        self._released: List[Tuple[int, int]] = []
        self._cursor = 0

    @property
    def allocated_count(self) -> int:
        """Number of currently allocated pairs."""
        return len(self._allocated)

    @property
    def can_allocate(self) -> bool:
        """Whether at least one more (VNH, VMAC) pair is available.

        Lets callers (the remote-group planner) degrade gracefully to
        real-next-hop announcements instead of hitting
        :class:`VnhAllocationError` when a long churn history has consumed
        the pool."""
        if self._released:
            return True
        return self._next_free(self._cursor)[0] is not None

    def _next_free(self, cursor: int) -> Tuple[Optional[int], int]:
        """First usable pool address value at/after ``cursor`` (skipping
        reserved and network/broadcast addresses) and the cursor past it;
        shared by :meth:`allocate` and :attr:`can_allocate` so the skip
        rules cannot drift apart."""
        while cursor < self._pool_size:
            candidate = self._pool_net + cursor
            cursor += 1
            if candidate in self._reserved:
                continue
            if candidate == self._pool_net or candidate == self._pool_last:
                continue
            return candidate, cursor
        return None, cursor

    def allocate(self) -> Tuple[IPv4Address, MacAddress]:
        """Allocate the next (VNH, VMAC) pair.

        Released pairs are reused first (still deterministic since release
        order is part of the input stream); otherwise the next free address
        of the pool is used.
        """
        if self._released:
            vnh, vmac = self._released.pop(0)
        else:
            vnh, self._cursor = self._next_free(self._cursor)
            if vnh is None:
                raise VnhAllocationError(
                    f"VNH pool {self.pool} exhausted after"
                    f" {len(self._allocated)} allocations"
                )
            # Fresh vmacs only ever mint while nothing is released, so
            # ``len + 1`` never collides with a live allocation.
            vmac = self._vmac_base + len(self._allocated) + 1
        self._allocated[vnh] = vmac
        return IPv4Address(vnh), MacAddress(vmac)

    def release(self, vnh: IPv4Address) -> bool:
        """Return a pair to the allocator; returns whether it was allocated."""
        vmac = self._allocated.pop(vnh, None)
        if vmac is None:
            return False
        self._released.append((vnh, vmac))
        return True
