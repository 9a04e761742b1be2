"""Deterministic synthetic prefix generation.

Prefixes are carved out of disjoint /22 blocks starting at 4.0.0.0, so any
two generated prefixes are guaranteed not to overlap regardless of their
length; the length of each prefix is drawn from a distribution approximating
the public IPv4 table (dominated by /24s).
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from typing import Iterator, List, Sequence, Tuple

from repro.net.addresses import AddressError, IPv4Address, IPv4Prefix
from repro.sim.random import SeededRandom

#: Approximate share of each prefix length in the global IPv4 table.
PREFIX_LENGTH_MIX: Sequence[Tuple[int, float]] = (
    (24, 0.58),
    (23, 0.12),
    (22, 0.14),
    (21, 0.06),
    (20, 0.06),
    (19, 0.04),
)

_BLOCK_BITS = 10  # each prefix lives in its own /22 (1024 addresses)
_BASE = IPv4Address("4.0.0.0")
_CEILING = IPv4Address("223.255.255.255")

# A length is the first whose cumulative share reaches the roll.  The
# thresholds are non-decreasing, so that first index is ``bisect_left``'s;
# a roll above the last threshold (float rounding) takes the last length,
# appended once more.
_TOTAL_WEIGHT = sum(weight for _, weight in PREFIX_LENGTH_MIX)
_CUMULATIVE = list(accumulate(weight / _TOTAL_WEIGHT for _, weight in PREFIX_LENGTH_MIX))
# Lengths shorter than /22 would escape the block; clamp them so prefixes
# stay disjoint (the mix still skews towards /24).
_LENGTHS = [max(length, 32 - _BLOCK_BITS) for length, _ in PREFIX_LENGTH_MIX]
_LENGTHS.append(_LENGTHS[-1])


class PrefixGenerator:
    """Generates non-overlapping prefixes, deterministically per seed."""

    def __init__(self, seed: int = 0) -> None:
        self._random = SeededRandom(seed)

    def stream_codes(self, count: int) -> Iterator[int]:
        """Stream ``count`` prefixes as integer codes (the scale core).

        One seed draw per index, so :meth:`generate` — which merely
        wraps this stream — yields the same prefixes; shard workers
        regenerate any slice of the table from (seed, index range) as
        plain ints, a third smaller than :class:`IPv4Prefix` instances.
        Generated blocks are /22-aligned and lengths are clamped to
        >= /22, so the code needs no host-bit masking.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        max_blocks = (_CEILING - _BASE) >> _BLOCK_BITS
        if count > max_blocks:
            raise AddressError(
                f"cannot generate {count} prefixes; only {max_blocks} disjoint blocks available"
            )
        roll = self._random.random
        cumulative, lengths = _CUMULATIVE, _LENGTHS
        shift = IPv4Prefix.LENGTH_BITS
        first = _BASE << shift
        step = 1 << (_BLOCK_BITS + shift)
        for block_code in range(first, first + count * step, step):
            yield block_code | lengths[bisect_left(cumulative, roll())]

    def generate(self, count: int) -> List[IPv4Prefix]:
        """Generate ``count`` distinct, non-overlapping prefixes."""
        return list(map(IPv4Prefix.from_code, self.stream_codes(count)))
