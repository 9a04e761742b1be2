"""Flow table: matches, actions, entries, priority lookup.

The match fields are the ones the supercharged controller needs
(destination MAC, in-port); wildcarding either is done by leaving it
``None``.  Actions model OpenFlow ``set_field(eth_dst)`` and ``output``.

The table is one list kept highest-priority-first, install order within
a priority, and every operation is a scan of it.  That is all the paper's
design needs: the switch holds one rule per backup group plus a few static
ones (5 / 3 / 7 rules on the campaign workloads, 34 with 30 providers; the
address plan tops out at 30*29 + 32 = 902), see docs/performance.md for
the measured price of a scan at each of those sizes.  Replacing an entry
moves it to the back of its priority class, ``modify`` keeps its slot
(locked by tests/test_dataplane_semantics.py).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.packets import EthernetFrame

if TYPE_CHECKING:  # messages.py imports this module
    from repro.openflow.messages import FlowMod


class FlowTableError(RuntimeError):
    """Raised for invalid flow-table operations (overflow, bad entries)."""


#: Pseudo port number meaning "flood on all ports except ingress" (OFPP_FLOOD).
FLOOD_PORT = 0xFFFFFFFB


class FlowMatch(NamedTuple):
    """Match on in-port and/or destination MAC (``None`` = wildcard)."""

    in_port: Optional[int] = None
    eth_dst: Optional[MacAddress] = None

    def matches(self, frame: EthernetFrame, in_port: int) -> bool:
        """Whether the frame arriving on ``in_port`` satisfies the match."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.eth_dst is not None and self.eth_dst != frame.dst_mac:
            return False
        return True


class Actions(NamedTuple):
    """Action list applied to matching frames, in OpenFlow apply-actions order:
    an optional destination-MAC rewrite, then output."""

    set_eth_dst: Optional[MacAddress] = None
    output_port: Optional[int] = None

    @property
    def is_drop(self) -> bool:
        """No output action means the frame is dropped."""
        return self.output_port is None

    def apply(self, frame: EthernetFrame) -> EthernetFrame:
        """Return the frame after the rewrite action (output is the caller's job)."""
        if self.set_eth_dst is not None:
            return frame.with_dst_mac(self.set_eth_dst)
        return frame


class FlowEntry(NamedTuple):
    """One flow-table entry."""

    match: FlowMatch
    actions: Actions
    priority: int = 100
    installed_at: float = 0.0

    def with_actions(self, actions: Actions) -> "FlowEntry":
        """Copy of the entry with different actions (a MODIFY flow-mod)."""
        return self._replace(actions=actions)


class FlowTable:
    """Priority-ordered flow table.

    ``capacity`` models the limited TCAM of a hardware switch; exceeding it
    raises :class:`FlowTableError` out of the install (and so out of the
    switch's programming event: a rejected flow-mod is never counted as
    applied).

    The whole state is ``_entries``, highest priority first, install
    order within a priority.  A fresh or replaced entry goes to the back
    of its priority class; ``modify`` swaps the entry in its slot.
    Entries are unique per ``(match, priority)``.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity <= 0:
            raise FlowTableError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: List[FlowEntry] = []

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def install(self, entry: FlowEntry) -> None:
        """Add an entry; an entry with an identical match+priority is replaced."""
        entries = self._entries
        slot = self._slot(entry.match, entry.priority)
        if slot is not None:
            del entries[slot]
        elif len(entries) >= self.capacity:
            raise FlowTableError(
                f"flow table full ({self.capacity} entries), cannot install {entry}"
            )
        # Back of its priority class: right before the first lower priority.
        priority = entry.priority
        back = sum(1 for other in entries if other.priority >= priority)
        entries.insert(back, entry)

    def modify(self, match: FlowMatch, priority: int, actions: Actions) -> bool:
        """Replace the actions of the entry with the given match+priority.

        Returns whether an entry was found and modified.  The entry keeps
        its position in the priority order (unlike a re-install).
        """
        slot = self._slot(match, priority)
        if slot is None:
            return False
        self._entries[slot] = self._entries[slot].with_actions(actions)
        return True

    def apply_batch(self, flow_mods: Iterable["FlowMod"], now: float = 0.0) -> int:
        """Apply a sequence of flow-mods in one call (an OpenFlow bundle).

        This is the one place that knows what the commands mean; the
        switch programs lone flow-mods and bundles alike through it.
        ``flow_mods`` is any iterable of
        :class:`~repro.openflow.messages.FlowMod`-shaped objects
        (``command``/``match``/``actions``/``priority``):
        ``add`` installs (replacing an identical match+priority),
        ``modify`` updates in place or, OpenFlow semantics, adds the entry
        if it is missing, ``delete`` removes.  Entries created by the batch
        get ``installed_at=now``.  Returns the number of flow-mods applied.
        A capacity overflow raises mid-batch; earlier mods stay applied
        (exactly as if the mods had been streamed one at a time).
        """
        applied = 0
        for mod in flow_mods:
            command = getattr(mod.command, "value", mod.command)
            actions = mod.actions or Actions()
            if command == "delete":
                self.remove(mod.match, mod.priority)
            elif command not in ("add", "modify"):
                raise FlowTableError(f"unknown flow-mod command: {mod.command!r}")
            elif command == "add" or not self.modify(mod.match, mod.priority, actions):
                self.install(
                    FlowEntry(
                        match=mod.match,
                        actions=actions,
                        priority=mod.priority,
                        installed_at=now,
                    )
                )
            applied += 1
        return applied

    def remove(self, match: FlowMatch, priority: Optional[int] = None) -> int:
        """Remove entries with the given match (and priority, if given).

        Returns the number of removed entries.
        """
        kept = [
            entry
            for entry in self._entries
            if not (entry.match == match and priority in (None, entry.priority))
        ]
        removed = len(self._entries) - len(kept)
        self._entries = kept
        return removed

    def clear(self) -> None:
        """Remove every entry."""
        self._entries = []

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def lookup(self, frame: EthernetFrame, in_port: int) -> Optional[FlowEntry]:
        """Highest-priority matching entry."""
        for entry in self._entries:
            if entry.match.matches(frame, in_port):
                return entry
        return None

    def find(self, match: FlowMatch, priority: int) -> Optional[FlowEntry]:
        """The installed entry with exactly this match and priority, if any."""
        slot = self._slot(match, priority)
        return self._entries[slot] if slot is not None else None

    def entries(self) -> Tuple[FlowEntry, ...]:
        """All entries in priority order."""
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def _slot(self, match: FlowMatch, priority: int) -> Optional[int]:
        for slot, entry in enumerate(self._entries):
            if entry.priority == priority and entry.match == match:
                return slot
        return None
