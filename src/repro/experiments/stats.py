"""Box-plot statistics matching the presentation of Figure 5 (the
implementation lives in the leaf module :mod:`repro.stats`)."""

from repro.stats import BoxStats, format_table, percentile, render

__all__ = ["BoxStats", "format_table", "percentile", "render"]
