"""Exporters: OpenMetrics text rendering and campaign report artifacts.

Two output families, both built from already-recorded telemetry (the
exporters never touch a live simulation, so they cannot perturb one):

* :func:`render_openmetrics` turns a
  :class:`~repro.telemetry.metrics.MetricsRegistry` snapshot into the
  OpenMetrics text exposition format (the Prometheus wire format), so a
  scenario's counters/gauges/histograms can be scraped or diffed with
  standard tooling.  Metric names are sanitised (dots → underscores) and
  prefixed ``repro_``; the wall-clock scale gauges of
  :mod:`repro.telemetry.process` are excluded by default so the rendered
  text stays byte-identical across reruns.
* :func:`build_campaign_report` + :func:`render_report_html` assemble the
  ``cli report`` artifact: a JSON document carrying each scenario's
  record, outage summaries, per-prefix restoration chains and CDF, plus
  a self-contained HTML page (inline SVG, no external assets) with a
  stage waterfall and the restoration CDFs.

Determinism: every iteration sorts its keys, floats are formatted with
fixed precision, and nothing here reads wall clock — rendering the same
registry or report twice yields identical bytes.
"""

from __future__ import annotations

import html
import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.causal import STAGES

#: Metrics excluded from byte-stable renderings (wall-clock quantities).
WALLCLOCK_METRICS: Tuple[str, ...] = ("process.peak_rss_mb",)


def _sanitize(name: str) -> str:
    """An OpenMetrics-legal metric name (``[a-zA-Z_:][a-zA-Z0-9_:]*``)."""
    cleaned = "".join(
        character if character.isalnum() or character in "_:" else "_"
        for character in name
    )
    return f"repro_{cleaned}"


def _format_value(value: float) -> str:
    """Canonical sample value formatting (integers stay integral)."""
    if float(value) == int(value):
        return str(int(value))
    return repr(round(float(value), 9))


def render_openmetrics(
    metrics: MetricsRegistry,
    exclude: Sequence[str] = WALLCLOCK_METRICS,
) -> str:
    """The registry in OpenMetrics text exposition format.

    Counters render as ``<name>_total``, gauges as ``<name>`` plus a
    companion ``<name>_high_water`` gauge, histograms as cumulative
    ``_bucket{le=...}`` series with ``_sum`` and ``_count``.  Ends with
    the mandatory ``# EOF`` terminator.
    """
    excluded = set(exclude)
    lines: List[str] = []
    snapshot = metrics.to_dict()
    for name in sorted(snapshot):
        if name in excluded:
            continue
        instrument = snapshot[name]
        metric = _sanitize(name)
        kind = instrument["type"]
        if kind == "counter":
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric}_total {_format_value(instrument['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(instrument['value'])}")
            lines.append(f"# TYPE {metric}_high_water gauge")
            lines.append(
                f"{metric}_high_water {_format_value(instrument['high_water'])}"
            )
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            edges: List[float] = list(instrument["edges"])
            counts: List[int] = list(instrument["counts"])
            for edge, bucket_count in zip(edges, counts):
                cumulative += bucket_count
                lines.append(
                    f'{metric}_bucket{{le="{_format_value(edge)}"}} {cumulative}'
                )
            cumulative += counts[len(edges)]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {_format_value(instrument['total'])}")
            lines.append(f"{metric}_count {instrument['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Campaign report artifact (JSON + self-contained HTML)
# ----------------------------------------------------------------------

def build_campaign_report(
    entries: Sequence[Mapping[str, Any]],
    title: str = "Convergence provenance report",
) -> Dict[str, Any]:
    """Assemble the JSON report document from per-scenario entries.

    Each entry carries ``record`` (the campaign record), ``outages``
    (ledger summaries), ``chains`` (per-subject restoration chains),
    ``restoration_cdf`` (``[ms, fraction]`` pairs) and optionally
    ``profile`` (the sim profiler snapshot).  The report adds a compact
    cross-scenario summary so the JSON is useful without post-processing.
    """
    total_chains = 0
    total_prefixes = 0
    scenarios: List[Dict[str, Any]] = []
    for entry in entries:
        outages = list(entry.get("outages") or [])
        total_chains += sum(int(outage.get("chains", 0)) for outage in outages)
        total_prefixes += sum(
            int(outage.get("prefixes_restored", 0)) for outage in outages
        )
        scenarios.append(dict(entry))
    return {
        "title": title,
        "scenario_count": len(scenarios),
        "total_chains": total_chains,
        "total_prefix_chains": total_prefixes,
        "scenarios": scenarios,
    }


def report_to_json(report: Mapping[str, Any]) -> str:
    """Canonical JSON serialisation of the report (sorted keys)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


_STAGE_COLORS = {
    "detect": "#c0504d",
    "decide": "#f79646",
    "push": "#4f81bd",
    "install": "#9bbb59",
}
_CDF_COLORS = ("#4f81bd", "#c0504d", "#9bbb59", "#8064a2", "#f79646", "#4bacc6")


def _scenario_label(record: Mapping[str, Any]) -> str:
    failures = record.get("failures")
    failure = failures[0] if isinstance(failures, list) and failures else "none"
    return f"{record.get('name', '?')}/{failure} seed={record.get('seed', '?')}"


def _render_waterfall(scenarios: Sequence[Mapping[str, Any]]) -> str:
    """Inline-SVG stage waterfall: one row per scenario, one bar per stage."""
    rows: List[Tuple[str, Dict[str, Optional[float]]]] = []
    scale = 0.0
    for entry in scenarios:
        record = entry.get("record") or {}
        offsets: Dict[str, Optional[float]] = {}
        for stage in STAGES:
            value = record.get(f"stage_{stage}_ms")
            offsets[stage] = float(value) if value is not None else None
            if offsets[stage] is not None:
                scale = max(scale, offsets[stage] or 0.0)
        rows.append((_scenario_label(record), offsets))
    if not rows:
        return "<p>No scenarios.</p>"
    scale = scale or 1.0
    row_height = 26
    chart_width = 640
    label_width = 280
    height = row_height * len(rows) + 30
    parts: List[str] = [
        f'<svg width="{label_width + chart_width + 80}" height="{height}"'
        f' font-family="monospace" font-size="12">'
    ]
    for index, (label, offsets) in enumerate(rows):
        y = 10 + index * row_height
        parts.append(
            f'<text x="0" y="{y + 12}">{html.escape(label)}</text>'
        )
        for stage in STAGES:
            value = offsets[stage]
            if value is None:
                continue
            x = label_width + (value / scale) * chart_width
            color = _STAGE_COLORS[stage]
            parts.append(
                f'<rect x="{label_width:.1f}" y="{y + 4}" width="{max(x - label_width, 2.0):.1f}"'
                f' height="4" fill="{color}" opacity="0.35">'
                f"<title>{stage}: {value:.3f} ms</title></rect>"
            )
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y + 6}" r="4" fill="{color}">'
                f"<title>{stage}: {value:.3f} ms</title></circle>"
            )
    legend_y = height - 8
    legend_x = label_width
    for stage in STAGES:
        parts.append(
            f'<circle cx="{legend_x}" cy="{legend_y - 4}" r="4" fill="{_STAGE_COLORS[stage]}"/>'
        )
        parts.append(f'<text x="{legend_x + 8}" y="{legend_y}">{stage}</text>')
        legend_x += 90
    parts.append(
        f'<text x="{label_width}" y="{height - 20}">0 .. {scale:.3f} ms</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _render_cdf(scenarios: Sequence[Mapping[str, Any]]) -> str:
    """Inline-SVG per-prefix restoration CDF, one step curve per scenario."""
    curves: List[Tuple[str, List[List[float]]]] = []
    scale = 0.0
    for entry in scenarios:
        points = list(entry.get("restoration_cdf") or [])
        if not points:
            continue
        record = entry.get("record") or {}
        scale = max(scale, float(points[-1][0]))
        curves.append((_scenario_label(record), points))
    if not curves:
        return "<p>No restoration chains recorded.</p>"
    scale = scale or 1.0
    width, height, pad = 640, 300, 40
    parts: List[str] = [
        f'<svg width="{width + 260}" height="{height}" font-family="monospace" font-size="12">',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width}" y2="{height - pad}" stroke="#888"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#888"/>',
        f'<text x="{pad}" y="{height - pad + 16}">0</text>',
        f'<text x="{width - 60}" y="{height - pad + 16}">{scale:.3f} ms</text>',
        f'<text x="4" y="{pad}">1.0</text>',
        f'<text x="4" y="{height - pad}">0.0</text>',
    ]
    for index, (label, points) in enumerate(curves):
        color = _CDF_COLORS[index % len(_CDF_COLORS)]
        coordinates: List[str] = [f"{pad:.1f},{height - pad:.1f}"]
        for latency, fraction in points:
            x = pad + (float(latency) / scale) * (width - pad)
            y = (height - pad) - float(fraction) * (height - 2 * pad)
            coordinates.append(f"{x:.1f},{y:.1f}")
        parts.append(
            f'<polyline points="{" ".join(coordinates)}" fill="none"'
            f' stroke="{color}" stroke-width="1.5"/>'
        )
        legend_y = pad + index * 16
        parts.append(
            f'<rect x="{width + 10}" y="{legend_y - 8}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width + 26}" y="{legend_y}">{html.escape(label)}'
            f" ({len(points)} chains)</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def render_report_html(report: Mapping[str, Any]) -> str:
    """The report as one self-contained HTML page (inline SVG/CSS)."""
    scenarios: Sequence[Mapping[str, Any]] = report.get("scenarios") or []
    outage_rows: List[str] = []
    for entry in scenarios:
        record = entry.get("record") or {}
        for outage in entry.get("outages") or []:
            cells = [
                _scenario_label(record),
                str(outage.get("outage")),
                str(outage.get("kind")),
                str(outage.get("chains")),
                str(outage.get("prefixes_restored")),
                str(outage.get("groups_restored")),
            ]
            for stage in STAGES:
                value = outage.get(f"{stage}_ms")
                cells.append("-" if value is None else f"{float(value):.3f}")
            value = outage.get("last_restore_ms")
            cells.append("-" if value is None else f"{float(value):.3f}")
            outage_rows.append(
                "<tr>" + "".join(f"<td>{html.escape(cell)}</td>" for cell in cells) + "</tr>"
            )
    header_cells = (
        ["scenario", "outage", "kind", "chains", "prefixes", "groups"]
        + [f"{stage} (ms)" for stage in STAGES]
        + ["last restore (ms)"]
    )
    table = (
        "<table><thead><tr>"
        + "".join(f"<th>{html.escape(cell)}</th>" for cell in header_cells)
        + "</tr></thead><tbody>"
        + "".join(outage_rows)
        + "</tbody></table>"
    )
    title = html.escape(str(report.get("title", "Report")))
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: monospace; margin: 24px; color: #222; }}
h1, h2 {{ font-weight: normal; }}
table {{ border-collapse: collapse; margin: 12px 0; }}
th, td {{ border: 1px solid #bbb; padding: 4px 8px; text-align: right; }}
th {{ background: #eee; }}
td:first-child, th:first-child {{ text-align: left; }}
</style>
</head>
<body>
<h1>{title}</h1>
<p>{report.get("scenario_count", 0)} scenario(s),
 {report.get("total_chains", 0)} restoration chain(s)
 ({report.get("total_prefix_chains", 0)} per-prefix).</p>
<h2>Outage chains</h2>
{table}
<h2>Stage waterfall (first observation per stage, ms after failure)</h2>
{_render_waterfall(scenarios)}
<h2>Per-prefix restoration CDF</h2>
{_render_cdf(scenarios)}
</body>
</html>
"""
