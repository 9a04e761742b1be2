"""Frozen pre-rewrite data-plane implementations (A/B benchmark reference).

These are byte-for-byte behavioral copies of the event engine and LPM trie
as they existed *before* the rewrite, kept so the dataplane benchmark can
measure the old and new code adjacently inside the same fresh subprocess
(our measurement methodology: see docs/performance.md).  Do not "fix" or
optimise anything here — the whole point is that this module stays slow
the way the original was.

The shared value types (IPv4Prefix, …) are imported from the live package:
the rewrite kept them unchanged, and using the same objects keeps the A/B
comparison apples-to-apples.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.addresses import IPv4Address, IPv4Prefix

ValueT = TypeVar("ValueT")


# ----------------------------------------------------------------------
# Legacy event engine: dataclass(order=True) events in the heap
# ----------------------------------------------------------------------
@dataclass(order=True)
class _LegacyEvent:
    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    name: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)
    executed: bool = field(default=False, compare=False)


class LegacyEventHandle:
    __slots__ = ("_event",)

    def __init__(self, event: _LegacyEvent) -> None:
        self._event = event

    def cancel(self) -> bool:
        if self._event.cancelled or self._event.executed:
            return False
        self._event.cancelled = True
        return True


class LegacySimulator:
    """The original engine: heap of dataclass events, O(n) pending scan."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[_LegacyEvent] = []
        self._sequence = itertools.count()
        self._executed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_executed(self) -> int:
        return self._executed

    @property
    def pending_events(self) -> int:
        return sum(1 for event in self._queue if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[[], None], name: str = ""):
        if delay < 0:
            raise RuntimeError(f"cannot schedule in the past (delay={delay})")
        if not math.isfinite(delay):
            raise RuntimeError(f"delay must be finite, got {delay}")
        return self.schedule_at(self._now + delay, callback, name)

    def schedule_at(self, when: float, callback: Callable[[], None], name: str = ""):
        if when < self._now:
            raise RuntimeError(f"cannot schedule at {when} before now ({self._now})")
        if not math.isfinite(when):
            raise RuntimeError(f"time must be finite, got {when}")
        event = _LegacyEvent(when, next(self._sequence), callback, name)
        heapq.heappush(self._queue, event)
        return LegacyEventHandle(event)

    def step(self) -> bool:
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if event.time < self._now:
                raise RuntimeError("event queue corrupted: time went backwards")
            self._now = event.time
            self._executed += 1
            event.executed = True
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            next_event = self._peek()
            if next_event is None:
                break
            if until is not None and next_event.time > until:
                break
            if self.step():
                executed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def _peek(self) -> Optional[_LegacyEvent]:
        while self._queue and self._queue[0].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0] if self._queue else None


# ----------------------------------------------------------------------
# Legacy LPM trie: one node per bit, per-bit generator walks
# ----------------------------------------------------------------------
class _LegacyTrieNode(Generic[ValueT]):
    __slots__ = ("children", "value", "has_value")

    def __init__(self) -> None:
        self.children: List[Optional["_LegacyTrieNode[ValueT]"]] = [None, None]
        self.value: Optional[ValueT] = None
        self.has_value = False


class LegacyLpmTable(Generic[ValueT]):
    """The original binary trie: node-per-bit, generator-driven walks."""

    def __init__(self) -> None:
        self._root: _LegacyTrieNode[ValueT] = _LegacyTrieNode()
        self._count = 0

    @staticmethod
    def _bits(prefix: IPv4Prefix) -> Iterator[int]:
        network = prefix.network.value
        for position in range(prefix.length):
            yield (network >> (31 - position)) & 1

    def insert(self, prefix: IPv4Prefix, value: ValueT) -> bool:
        node = self._root
        for bit in self._bits(prefix):
            if node.children[bit] is None:
                node.children[bit] = _LegacyTrieNode()
            node = node.children[bit]
        was_new = not node.has_value
        node.value = value
        node.has_value = True
        if was_new:
            self._count += 1
        return was_new

    def remove(self, prefix: IPv4Prefix) -> bool:
        node = self._root
        for bit in self._bits(prefix):
            if node.children[bit] is None:
                return False
            node = node.children[bit]
        if not node.has_value:
            return False
        node.has_value = False
        node.value = None
        self._count -= 1
        return True

    def exact(self, prefix: IPv4Prefix) -> Optional[ValueT]:
        node = self._root
        for bit in self._bits(prefix):
            if node.children[bit] is None:
                return None
            node = node.children[bit]
        return node.value if node.has_value else None

    def lookup(self, address: IPv4Address) -> Optional[Tuple[IPv4Prefix, ValueT]]:
        node = self._root
        best: Optional[Tuple[int, ValueT]] = None
        value = address.value
        depth = 0
        if node.has_value:
            best = (0, node.value)
        while depth < 32:
            bit = (value >> (31 - depth)) & 1
            child = node.children[bit]
            if child is None:
                break
            node = child
            depth += 1
            if node.has_value:
                best = (depth, node.value)
        if best is None:
            return None
        length, matched_value = best
        masked = value & IPv4Prefix.mask_for(length)
        return IPv4Prefix(IPv4Address(masked), length), matched_value

    def __len__(self) -> int:
        return self._count
