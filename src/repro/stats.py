"""Sample statistics and text tables shared by every report.

A leaf module (it imports nothing from :mod:`repro`), so the telemetry
ledger, the campaign runner and the experiments can all import it at
module level.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, NamedTuple, Sequence, Tuple, Union


def quantile_from_sorted(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of an already-sorted
    sample list — the one interpolation formula in the code base."""
    if not values:
        raise ValueError("cannot compute a quantile of no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    position = q * (len(values) - 1)
    lower = int(position)
    upper = min(lower + 1, len(values) - 1)
    # lower + weight * (upper - lower) never undershoots values[lower] under
    # floating point, keeping quantiles monotone in ``q``.
    return values[lower] + (position - lower) * (values[upper] - values[lower])


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (``fraction`` in [0, 1])."""
    return quantile_from_sorted(sorted(samples), fraction)


class BoxStats(NamedTuple):
    """The statistics Figure 5 shows for each box."""

    count: int
    minimum: float
    p5: float
    q1: float
    median: float
    q3: float
    p95: float
    maximum: float
    mean: float

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "BoxStats":
        """Summarise a list of convergence samples."""
        if not samples:
            raise ValueError("cannot summarise an empty sample list")
        values = list(samples)
        ordered = sorted(values)
        return cls(
            count=len(values),
            minimum=ordered[0],
            p5=quantile_from_sorted(ordered, 0.05),
            q1=quantile_from_sorted(ordered, 0.25),
            median=quantile_from_sorted(ordered, 0.50),
            q3=quantile_from_sorted(ordered, 0.75),
            p95=quantile_from_sorted(ordered, 0.95),
            maximum=ordered[-1],
            mean=sum(values) / len(values),
        )

    def scaled(self, factor: float) -> "BoxStats":
        """Return the same statistics multiplied by ``factor`` (unit changes)."""
        return BoxStats(self.count, *(value * factor for value in self[1:]))

    def as_milliseconds(self) -> "BoxStats":
        """Convert second-based samples to milliseconds."""
        return self.scaled(1e3)


def format_table(headers: List[str], rows: List[List[str]]) -> str:
    """Render a fixed-width text table (used by the benchmark reports)."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


#: One table column: ``(header, key)`` or ``(header, key, float format)``.
#: ``key`` is a callable ``row -> value``, a mapping key or an attribute name.
Column = Tuple[Any, ...]


def render(rows: Sequence[Any], columns: Sequence[Column]) -> str:
    """Render ``rows`` as the fixed-width table described by ``columns``.

    ``None`` prints as ``-``, floats in the column's format (``.1f`` unless
    given) and everything else through ``str``."""

    def cell(row: Any, key: Union[str, Callable[[Any], Any]], spec: str = ".1f") -> str:
        if callable(key):
            value = key(row)
        elif isinstance(row, Mapping):
            value = row.get(key)
        else:
            value = getattr(row, key)
        if value is None:
            return "-"
        return format(value, spec) if isinstance(value, float) else str(value)

    return format_table(
        [column[0] for column in columns],
        [[cell(row, *column[1:]) for column in columns] for row in rows],
    )
