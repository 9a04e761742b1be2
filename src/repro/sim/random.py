"""Deterministic randomness for simulations.

Every stochastic choice in the library (prefix generation, jittered
timers, flow selection) goes through a :class:`SeededRandom`, so an
entire experiment is reproducible from one integer seed.
"""

from __future__ import annotations

import random
import zlib
from itertools import repeat
from typing import Iterable, Iterator, List, Sequence, Tuple, TypeVar

T = TypeVar("T")


class SeededRandom:
    """Thin, intention-revealing wrapper around :class:`random.Random`."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        #: Uniform float in ``[0, 1)``: the stream's own C-level method,
        #: so a bulk generator that binds it draws without a Python frame.
        self.random = self._rng.random

    def fork(self, label: str) -> "SeededRandom":
        """Derive an independent, reproducible child source.

        Two forks with the same parent seed and label always produce the
        same stream, regardless of how much the parent has been consumed —
        across processes too (the label is mixed in with a stable CRC, not
        Python's per-process salted ``hash``).
        """
        label_mix = zlib.crc32(label.encode("utf-8"))
        child_seed = (self._seed * 0x9E3779B1 + label_mix) & 0x7FFFFFFF
        return SeededRandom(child_seed)

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def integers(self, low: int, high: int) -> Iterator[int]:
        """Endless ``randint(low, high)`` draws, each made when pulled: the
        ``getrandbits`` rejection loop :meth:`randint` runs, as a chain of C
        iterators, so a pull runs no Python frame."""
        span = high - low + 1
        if span < 1:
            raise ValueError(f"empty range for randint({low}, {high})")
        bits = span.bit_length()
        return map(low.__add__, filter(span.__gt__, map(self._rng.getrandbits, repeat(bits))))

    def randints(self, bounds: Iterable[Tuple[int, int]]) -> Iterator[int]:
        """``randint(low, high)`` for each ``(low, high)`` of ``bounds``,
        drawn when pulled: the rejection loop of :meth:`integers` in one
        generator frame, for ranges that vary from draw to draw.
        """
        getrandbits = self._rng.getrandbits
        for low, high in bounds:
            span = high - low + 1
            if span < 1:
                raise ValueError(f"empty range for randint({low}, {high})")
            bits = span.bit_length()
            value = getrandbits(bits)
            while value >= span:
                value = getrandbits(bits)
            yield low + value

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """Pick ``count`` distinct elements uniformly at random."""
        return self._rng.sample(items, count)
