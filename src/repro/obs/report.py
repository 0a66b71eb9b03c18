"""Self-contained HTML batch report: ``python -m repro report``.

Fuses whatever observability artifacts a batch run produced — the
per-loop metrics JSON (``batch --out``), the merged metrics registry
(``--metrics-out``), the profiler span snapshot (``--profile-out``),
the scheduler trace JSONL (``--trace``), the progress-event log
(``--progress-log``) and a pair of BENCH_*.json result sets
(``--compare OLD NEW``) — into one dependency-free HTML file: inline
CSS, inline SVG, no scripts, no network fetches.  Open it from a CI
artifact tab or ``file://`` and it renders identically.

Sections (each appears only when its input was given):

* stat tiles — loops, pipeline rate, cache hit rate, p50/p90/p99 job
  latency (the registry's ``service.job.seconds`` histogram);
* profiler flamegraph — span paths become a left-packed icicle chart,
  width proportional to cumulative seconds;
* per-loop scheduling-latency distribution (histogram);
* MaxLive vs MinAvg scatter — register pressure against the paper's
  lower bound, optimal (II = MII) and suboptimal loops as two series;
* breakdown bars — cache outcomes, failure reasons, progress lifecycle
  counts, trace event mix;
* straggler table from the progress log;
* regression delta table (reusing :mod:`repro.obs.regress`).

The builder is a pure function of its inputs: no wall-clock reads, no
environment probes, sorted iteration everywhere, fixed float
formatting.  Rendering the same inputs twice yields byte-identical
output — CI builds the report twice and ``cmp``s them.
"""

from __future__ import annotations

import argparse
import html
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.history import HistoryStore, metric_trends, positive_int
from repro.obs.prof import PATH_SEP
from repro.obs.progress import KIND_STRAGGLER, ProgressEvent, load_progress_log
from repro.obs.regress import MetricDelta, collect_bench_files, compare_sets

#: Chart geometry shared by every SVG (one visual rhythm).
_CHART_W = 660
_CHART_H = 230
_MARGIN_L = 52
_MARGIN_R = 10
_MARGIN_T = 10
_MARGIN_B = 30

#: Categorical slots (validated order; see DESIGN.md "Report palette").
_SERIES = ("series-1", "series-2", "series-3")

#: Flamegraph depth shading: one sequential blue ramp, light -> dark.
_FLAME_RAMP = ("#9ec5f4", "#6da7ec", "#3987e5", "#2a78d6", "#256abf", "#1c5cab")


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: float) -> str:
    """Fixed, locale-free number formatting (byte-determinism)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.4g}"


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1e3:.1f} ms"


def _nice_step(span: float, target: int = 4) -> float:
    """A 1/2/5-series tick step covering ``span`` in about ``target`` ticks."""
    if span <= 0:
        return 1.0
    raw = span / target
    magnitude = 10.0 ** math.floor(math.log10(raw))
    for multiple in (1.0, 2.0, 5.0, 10.0):
        if multiple * magnitude >= raw:
            return multiple * magnitude
    return 10.0 * magnitude


def _ticks(lo: float, hi: float, target: int = 4) -> List[float]:
    step = _nice_step(hi - lo, target)
    first = math.ceil(lo / step) * step
    values = []
    value = first
    while value <= hi + step * 1e-9:
        values.append(round(value, 10))
        value += step
    return values


# ----------------------------------------------------------------------
# Input loaders
# ----------------------------------------------------------------------
def load_loop_records(path: str) -> List[dict]:
    """Read a ``batch --out`` JSON array of LoopMetrics records."""
    with open(path) as handle:
        records = json.load(handle)
    if not isinstance(records, list):
        raise ValueError(f"{path}: expected a JSON array of loop records")
    return records


def load_json_object(path: str, what: str) -> dict:
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object ({what})")
    return payload


def load_trace_records(path: str) -> List[dict]:
    """Read a ``batch --trace`` JSONL stream of loop-tagged events."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# SVG building blocks
# ----------------------------------------------------------------------
def _column_path(x: float, y: float, w: float, h: float, r: float = 4.0) -> str:
    """A column with a rounded cap and a square baseline."""
    r = max(0.0, min(r, w / 2.0, h))
    return (
        f"M{x:.2f},{y + h:.2f} L{x:.2f},{y + r:.2f} "
        f"Q{x:.2f},{y:.2f} {x + r:.2f},{y:.2f} "
        f"L{x + w - r:.2f},{y:.2f} "
        f"Q{x + w:.2f},{y:.2f} {x + w:.2f},{y + r:.2f} "
        f"L{x + w:.2f},{y + h:.2f} Z"
    )


def _bar_path(x: float, y: float, w: float, h: float, r: float = 4.0) -> str:
    """A horizontal bar with a rounded data-end and a square baseline."""
    r = max(0.0, min(r, h / 2.0, w))
    return (
        f"M{x:.2f},{y:.2f} L{x + w - r:.2f},{y:.2f} "
        f"Q{x + w:.2f},{y:.2f} {x + w:.2f},{y + r:.2f} "
        f"L{x + w:.2f},{y + h - r:.2f} "
        f"Q{x + w:.2f},{y + h:.2f} {x + w - r:.2f},{y + h:.2f} "
        f"L{x:.2f},{y + h:.2f} Z"
    )


def _svg_open(height: int = _CHART_H) -> str:
    return (
        f'<svg viewBox="0 0 {_CHART_W} {height}" width="100%" '
        f'height="{height}" role="img">'
    )


def _table_view(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """The chart's accessible twin: same data as a plain table."""
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return (
        "<details><summary>Table view</summary>"
        f'<table class="data"><thead><tr>{head}</tr></thead>'
        f"<tbody>{body}</tbody></table></details>"
    )


def _card(title: str, subtitle: str, body: str) -> str:
    sub = f'<p class="sub">{_esc(subtitle)}</p>' if subtitle else ""
    return f'<section class="card"><h2>{_esc(title)}</h2>{sub}{body}</section>'


def histogram_svg(values: Sequence[float], unit: str = "ms") -> str:
    """A single-series latency histogram (values in milliseconds)."""
    if not values:
        return '<p class="empty">no samples</p>'
    lo, hi = min(values), max(values)
    if hi <= lo:
        hi = lo + 1.0
    nbins = min(24, max(6, len(values) // 2))
    width = (hi - lo) / nbins
    counts = [0] * nbins
    for value in values:
        counts[min(nbins - 1, int((value - lo) / width))] += 1
    peak = max(counts)
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B
    slot = plot_w / nbins
    bar_w = min(24.0, max(1.0, slot - 2.0))  # 2px surface gap between bars
    parts = [_svg_open()]
    for tick in _ticks(0, peak):
        y = _MARGIN_T + plot_h * (1 - tick / peak)
        parts.append(
            f'<line class="grid" x1="{_MARGIN_L}" y1="{y:.2f}" '
            f'x2="{_CHART_W - _MARGIN_R}" y2="{y:.2f}"/>'
            f'<text class="tick" x="{_MARGIN_L - 6}" y="{y + 3:.2f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    baseline = _MARGIN_T + plot_h
    for index, count in enumerate(counts):
        if not count:
            continue
        x = _MARGIN_L + index * slot + (slot - bar_w) / 2
        h = plot_h * count / peak
        lo_edge, hi_edge = lo + index * width, lo + (index + 1) * width
        parts.append(
            f'<path class="s1" d="{_column_path(x, baseline - h, bar_w, h)}">'
            f"<title>{_fmt(lo_edge)}&#8211;{_fmt(hi_edge)} {unit}: "
            f"{count} loop(s)</title></path>"
        )
    for tick in _ticks(lo, hi, 5):
        x = _MARGIN_L + plot_w * (tick - lo) / (hi - lo)
        parts.append(
            f'<text class="tick" x="{x:.2f}" y="{_CHART_H - 8}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{_MARGIN_L}" y1="{baseline}" '
        f'x2="{_CHART_W - _MARGIN_R}" y2="{baseline}"/>'
    )
    parts.append(
        f'<text class="tick" x="{_CHART_W - _MARGIN_R}" '
        f'y="{_CHART_H - 8}" text-anchor="end">{_esc(unit)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def scatter_svg(points: Sequence[Tuple[float, float, str, bool]]) -> str:
    """MaxLive vs MinAvg: (min_avg, max_live, loop name, optimal)."""
    if not points:
        return '<p class="empty">no scheduled loops</p>'
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo = 0.0
    hi = max(max(xs), max(ys)) * 1.08 + 1e-9
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B

    def sx(v: float) -> float:
        return _MARGIN_L + plot_w * (v - lo) / (hi - lo)

    def sy(v: float) -> float:
        return _MARGIN_T + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [_svg_open()]
    for tick in _ticks(lo, hi):
        parts.append(
            f'<line class="grid" x1="{_MARGIN_L}" y1="{sy(tick):.2f}" '
            f'x2="{_CHART_W - _MARGIN_R}" y2="{sy(tick):.2f}"/>'
            f'<text class="tick" x="{_MARGIN_L - 6}" y="{sy(tick) + 3:.2f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
            f'<text class="tick" x="{sx(tick):.2f}" y="{_CHART_H - 8}" '
            f'text-anchor="middle">{_fmt(tick)}</text>'
        )
    # The MaxLive = MinAvg reference: points on the line hit the bound.
    parts.append(
        f'<line class="ref" x1="{sx(lo):.2f}" y1="{sy(lo):.2f}" '
        f'x2="{sx(hi):.2f}" y2="{sy(hi):.2f}"/>'
        f'<text class="tick" x="{sx(hi * 0.93):.2f}" '
        f'y="{sy(hi * 0.93) - 6:.2f}">MaxLive = MinAvg</text>'
    )
    for min_avg, max_live, name, optimal in sorted(points, key=lambda p: p[2]):
        klass = "s1" if optimal else "s2"
        label = "II = MII" if optimal else "II &gt; MII"
        parts.append(
            f'<circle class="dot {klass}" cx="{sx(min_avg):.2f}" '
            f'cy="{sy(max_live):.2f}" r="5">'
            f"<title>{_esc(name)}: MaxLive {_fmt(max_live)}, "
            f"MinAvg {_fmt(min_avg)} ({label})</title></circle>"
        )
    parts.append(
        f'<line class="axis" x1="{_MARGIN_L}" y1="{_MARGIN_T + plot_h}" '
        f'x2="{_CHART_W - _MARGIN_R}" y2="{_MARGIN_T + plot_h}"/>'
    )
    parts.append("</svg>")
    legend = (
        '<div class="legend">'
        '<span><i class="key s1"></i>II = MII (optimal)</span>'
        '<span><i class="key s2"></i>II &gt; MII</span>'
        "<span>x: MinAvg bound &#183; y: MaxLive</span></div>"
    )
    return legend + "".join(parts)


def bars_svg(pairs: Sequence[Tuple[str, float]], unit: str = "") -> str:
    """Horizontal category bars with the value labelled at each tip."""
    pairs = [(name, value) for name, value in pairs if value]
    if not pairs:
        return '<p class="empty">nothing recorded</p>'
    peak = max(value for _, value in pairs)
    row_h = 26
    bar_h = 18  # <= 24px, air in the band
    label_w = 170
    height = len(pairs) * row_h + 8
    plot_w = _CHART_W - label_w - 80
    parts = [_svg_open(height)]
    for index, (name, value) in enumerate(pairs):
        y = 4 + index * row_h
        w = max(2.0, plot_w * value / peak)
        parts.append(
            f'<text class="label" x="{label_w - 8}" '
            f'y="{y + bar_h - 5}" text-anchor="end">{_esc(name)}</text>'
            f'<path class="s1" d="{_bar_path(label_w, y, w, bar_h)}">'
            f"<title>{_esc(name)}: {_fmt(value)} {unit}</title></path>"
            f'<text class="value" x="{label_w + w + 6:.2f}" '
            f'y="{y + bar_h - 5}">{_fmt(value)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _span_tree(spans: Dict[str, dict]) -> Dict[str, List[str]]:
    """children[path] = sorted child paths; roots under children[""]."""
    children: Dict[str, List[str]] = {"": []}
    for path in sorted(spans):
        parent = path.rsplit(PATH_SEP, 1)[0] if PATH_SEP in path else ""
        children.setdefault(parent, []).append(path)
        children.setdefault(path, [])
    return children


def flamegraph_svg(spans: Dict[str, dict]) -> str:
    """Left-packed icicle chart over profiler span paths."""
    if not spans:
        return '<p class="empty">no spans recorded</p>'
    children = _span_tree(spans)
    total = sum(spans[root]["cum_seconds"] for root in children[""])
    if total <= 0:
        return '<p class="empty">no time recorded</p>'
    row_h, gap = 26, 2
    depth = max(path.count(PATH_SEP) for path in spans) + 1
    height = depth * row_h + 4
    parts = [_svg_open(height)]

    def emit(path: str, x: float, width: float, level: int) -> None:
        stat = spans[path]
        name = path.rsplit(PATH_SEP, 1)[-1]
        y = 2 + level * row_h
        w = max(1.0, width - gap)
        fill = _FLAME_RAMP[min(level, len(_FLAME_RAMP) - 1)]
        share = stat["cum_seconds"] / total
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" '
            f'height="{row_h - gap}" rx="2" fill="{fill}">'
            f"<title>{_esc(path.replace(PATH_SEP, ' > '))}: "
            f"{_fmt_ms(stat['cum_seconds'])} cum ({share:.1%}), "
            f"{_fmt_ms(stat['self_seconds'])} self, "
            f"{stat['calls']} call(s)</title></rect>"
        )
        if w > 7.0 * len(name) + 8:  # label only when it fits comfortably
            ink = "#0b0b0b" if level < 2 else "#ffffff"
            parts.append(
                f'<text class="flame" x="{x + 5:.2f}" y="{y + row_h - 10}" '
                f'fill="{ink}">{_esc(name)}</text>'
            )
        offset = x
        for child in children.get(path, []):
            child_w = width * spans[child]["cum_seconds"] / max(
                stat["cum_seconds"], 1e-12
            )
            emit(child, offset, child_w, level + 1)
            offset += child_w

    offset = 0.0
    for root in children[""]:
        root_w = _CHART_W * spans[root]["cum_seconds"] / total
        emit(root, offset, root_w, 0)
        offset += root_w
    parts.append("</svg>")
    return "".join(parts)


#: Sparkline geometry (small multiples in the history trend table).
_SPARK_W = 220
_SPARK_H = 36
_SPARK_PAD = 5


def sparkline_svg(
    values: Sequence[Optional[float]], anomalies: Sequence[bool]
) -> str:
    """A small inline trend line: series-1 polyline, anomalies as
    series-2 dots, the latest point as a filled series-1 dot."""
    points = [
        (index, value)
        for index, value in enumerate(values)
        if value is not None
    ]
    if not points:
        return '<span class="empty">no data</span>'
    lo = min(value for _, value in points)
    hi = max(value for _, value in points)
    span = hi - lo if hi > lo else 1.0
    n = max(1, len(values) - 1)

    def sx(index: int) -> float:
        return _SPARK_PAD + (_SPARK_W - 2 * _SPARK_PAD) * index / n

    def sy(value: float) -> float:
        return _SPARK_PAD + (_SPARK_H - 2 * _SPARK_PAD) * (1 - (value - lo) / span)

    parts = [
        f'<svg class="spark" viewBox="0 0 {_SPARK_W} {_SPARK_H}" '
        f'width="{_SPARK_W}" height="{_SPARK_H}" role="img">'
    ]
    if len(points) > 1:
        path = " ".join(f"{sx(i):.2f},{sy(v):.2f}" for i, v in points)
        parts.append(f'<polyline class="line" points="{path}"/>')
    for index, value in points:
        if index < len(anomalies) and anomalies[index]:
            parts.append(
                f'<circle class="anom" cx="{sx(index):.2f}" '
                f'cy="{sy(value):.2f}" r="3">'
                f"<title>run {index + 1}: {_fmt(value)} (anomaly)</title>"
                "</circle>"
            )
    last_index, last_value = points[-1]
    parts.append(
        f'<circle class="last" cx="{sx(last_index):.2f}" '
        f'cy="{sy(last_value):.2f}" r="3">'
        f"<title>latest: {_fmt(last_value)}</title></circle>"
    )
    parts.append("</svg>")
    return "".join(parts)


def _trend_section(scenario: str, trends: Sequence) -> str:
    """One scenario's history card: sparkline + latest per metric."""
    if not trends:
        return ""
    n_runs = len(trends[0].values)
    rows = []
    cells = []
    for trend in trends:
        latest = "-" if trend.latest is None else _fmt(trend.latest)
        anomaly = (
            f'<span class="bad">{trend.anomaly_count}</span>'
            if trend.anomaly_count
            else '<span class="muted">0</span>'
        )
        cells.append(
            "<tr>"
            f"<td>{_esc(trend.name)}</td>"
            f'<td class="num">{_esc(latest)}</td>'
            f"<td>{_esc(trend.unit)}</td>"
            f'<td class="num">{anomaly}</td>'
            f"<td>{sparkline_svg(trend.values, trend.anomalies)}</td></tr>"
        )
        rows.append(
            (
                trend.name,
                latest,
                trend.unit,
                trend.anomaly_count,
                " ".join(
                    "-" if value is None else _fmt(value)
                    for value in trend.values
                ),
            )
        )
    table = (
        '<table class="data trend"><thead><tr><th>metric</th>'
        '<th class="num">latest</th><th>unit</th>'
        '<th class="num">anomalies</th><th>trend</th></tr></thead>'
        f"<tbody>{''.join(cells)}</tbody></table>"
    )
    return _card(
        f"History: {scenario}",
        f"rolling-median + MAD anomaly scan over {n_runs} recorded run(s); "
        "orange dots are anomalous points",
        table
        + _table_view(
            ("metric", "latest", "unit", "anomalies", "values"), rows
        ),
    )


def delta_table_html(deltas: Sequence[MetricDelta]) -> str:
    """The regression comparator as an HTML table (icon + word status)."""
    rows = []
    moved = [d for d in deltas if d.status != "ok"]
    for d in moved:
        if d.status == "regression":
            status = '<span class="bad">&#9650; regression</span>'
            if not d.gating:
                status += ' <span class="muted">(not gated)</span>'
        elif d.status == "improvement":
            status = '<span class="good">&#9660; improvement</span>'
        else:
            status = f'<span class="muted">{_esc(d.status)}</span>'
        rows.append(
            "<tr>"
            f"<td>{_esc(d.scenario)}</td><td>{_esc(d.name)}</td>"
            f'<td class="num">{_esc("-" if d.old is None else _fmt(d.old))}</td>'
            f'<td class="num">{_esc("-" if d.new is None else _fmt(d.new))}</td>'
            f'<td class="num">{d.worse_by:+.1%}</td>'
            f'<td class="num">&#177;{d.allowance:.1%}</td>'
            f"<td>{status}</td></tr>"
        )
    if not rows:
        rows.append(
            '<tr><td colspan="7" class="muted">'
            "all metrics within noise</td></tr>"
        )
    ok = sum(1 for d in deltas if d.status == "ok")
    caption = (
        f"{len(deltas)} metric(s) compared; {ok} within noise "
        f"(unchanged rows omitted)"
    )
    return (
        f'<p class="sub">{_esc(caption)}</p>'
        '<table class="data"><thead><tr><th>scenario</th><th>metric</th>'
        '<th class="num">old</th><th class="num">new</th>'
        '<th class="num">delta</th><th class="num">allowed</th>'
        f"<th>status</th></tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


# ----------------------------------------------------------------------
# Section builders
# ----------------------------------------------------------------------
def _stat_tiles(tiles: Sequence[Tuple[str, str]]) -> str:
    cells = "".join(
        f'<div class="tile"><span class="tlabel">{_esc(label)}</span>'
        f'<span class="tvalue">{_esc(value)}</span></div>'
        for label, value in tiles
    )
    return f'<section class="tiles">{cells}</section>'


def _overview_tiles(
    loop_records: Optional[List[dict]], registry: Optional[dict]
) -> str:
    tiles: List[Tuple[str, str]] = []
    if loop_records:
        scheduled = [r for r in loop_records if r.get("success")]
        tiles.append(("Loops", str(len(loop_records))))
        optimal = sum(1 for r in scheduled if r.get("ii") == r.get("mii"))
        if scheduled:
            tiles.append(
                ("Pipelined at MII", f"{optimal / len(scheduled):.0%}")
            )
        failed = len(loop_records) - len(scheduled)
        if failed:
            tiles.append(("Failed to pipeline", str(failed)))
    if registry:
        counters = registry.get("counters", {})
        hits = counters.get("service.cache.hits", 0)
        misses = counters.get("service.cache.misses", 0)
        if hits + misses:
            tiles.append(("Cache hit rate", f"{hits / (hits + misses):.0%}"))
        values = registry.get("histogram_values", {}).get("service.job.seconds")
        if values:
            from repro.obs.metrics import Histogram

            histogram = Histogram()
            for value in values:
                histogram.record(value)
            quantiles = histogram.quantiles()
            for name, seconds in quantiles.items():
                tiles.append((f"Job latency {name}", _fmt_ms(seconds)))
        flagged = counters.get("service.stragglers.flagged", 0)
        if flagged:
            tiles.append(("Stragglers", str(flagged)))
    if not tiles:
        return ""
    return _stat_tiles(tiles)


def _latency_section(loop_records: List[dict]) -> str:
    samples = [
        r["scheduling_seconds"] * 1e3
        for r in loop_records
        if r.get("scheduling_seconds")
    ]
    if not samples:
        return ""
    rows = sorted(
        (
            (r.get("name", "?"), f"{r['scheduling_seconds'] * 1e3:.2f}")
            for r in loop_records
            if r.get("scheduling_seconds")
        ),
        key=lambda row: -float(row[1]),
    )
    return _card(
        "Scheduling latency distribution",
        f"per-loop scheduler wall time over {len(samples)} loop(s)",
        histogram_svg(samples, "ms") + _table_view(("loop", "ms"), rows),
    )


def _scatter_section(loop_records: List[dict]) -> str:
    points = [
        (
            float(r["min_avg"]),
            float(r["max_live"]),
            r.get("name", "?"),
            r.get("ii") == r.get("mii"),
        )
        for r in loop_records
        if r.get("success") and r.get("min_avg") and r.get("max_live")
    ]
    if not points:
        return ""
    rows = [
        (name, _fmt(min_avg), _fmt(max_live), "yes" if optimal else "no")
        for min_avg, max_live, name, optimal in sorted(
            points, key=lambda p: p[2]
        )
    ]
    return _card(
        "Register pressure vs the MinAvg bound",
        "each dot is one scheduled loop; distance above the line is "
        "pressure the allocator pays beyond the paper's lower bound",
        scatter_svg(points)
        + _table_view(("loop", "MinAvg", "MaxLive", "II = MII"), rows),
    )


def _breakdown_section(
    loop_records: Optional[List[dict]],
    registry: Optional[dict],
    trace_records: Optional[List[dict]],
    progress_events: Optional[List[ProgressEvent]],
) -> str:
    blocks = []
    if registry:
        counters = registry.get("counters", {})
        cache_pairs = [
            (name.rsplit(".", 1)[-1], value)
            for name, value in sorted(counters.items())
            if name.startswith("service.cache.")
        ]
        if any(value for _, value in cache_pairs):
            blocks.append(
                "<h3>Cache outcomes</h3>" + bars_svg(cache_pairs, "entries")
            )
        progress_pairs = [
            (name.rsplit(".", 1)[-1], value)
            for name, value in sorted(counters.items())
            if name.startswith("service.progress.")
        ]
        if progress_pairs:
            blocks.append(
                "<h3>Progress lifecycle</h3>" + bars_svg(progress_pairs, "events")
            )
    elif progress_events:
        counts: Dict[str, int] = {}
        for event in progress_events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        blocks.append(
            "<h3>Progress lifecycle</h3>"
            + bars_svg(sorted(counts.items()), "events")
        )
    if loop_records:
        reasons: Dict[str, int] = {}
        for record in loop_records:
            if not record.get("success"):
                reason = record.get("failure_reason") or "unknown"
                reasons[reason] = reasons.get(reason, 0) + 1
        if reasons:
            blocks.append(
                "<h3>Failure reasons</h3>" + bars_svg(sorted(reasons.items()))
            )
    if trace_records:
        kinds: Dict[str, int] = {}
        for record in trace_records:
            kind = record.get("type") or record.get("event") or "?"
            kinds[kind] = kinds.get(kind, 0) + 1
        blocks.append(
            "<h3>Trace event mix</h3>" + bars_svg(sorted(kinds.items()), "events")
        )
    if not blocks:
        return ""
    return _card("Breakdowns", "", "".join(blocks))


def _straggler_section(progress_events: List[ProgressEvent]) -> str:
    flagged = [e for e in progress_events if e.kind == KIND_STRAGGLER]
    if not flagged:
        return ""
    rows = [
        (
            event.loop,
            f"{(event.seconds or 0.0) * 1e3:.1f}",
            f"{event.ratio:.1f}x" if event.ratio else "-",
            "in flight" if event.status is None else event.status,
        )
        for event in sorted(flagged, key=lambda e: -(e.ratio or 0.0))
    ]
    return _card(
        "Stragglers",
        "jobs flagged past the watchdog's multiple of the median latency",
        _table_view(("loop", "ms", "over median", "state"), rows),
    )


def _flame_section(profile: dict) -> str:
    spans = profile.get("spans", {})
    if not spans:
        return ""
    rows = [
        (
            path.replace(PATH_SEP, " > "),
            stat["calls"],
            f"{stat['self_seconds'] * 1e3:.2f}",
            f"{stat['cum_seconds'] * 1e3:.2f}",
        )
        for path, stat in sorted(spans.items())
    ]
    extras = ""
    peak = profile.get("peak_memory_bytes")
    if peak:
        extras = f'<p class="sub">peak memory: {peak / 1e6:.2f} MB</p>'
    return _card(
        "Where the time went",
        "span flamegraph: width is cumulative wall time, row is call depth",
        flamegraph_svg(spans)
        + extras
        + _table_view(("span path", "calls", "self ms", "cum ms"), rows),
    )


# ----------------------------------------------------------------------
# Page assembly
# ----------------------------------------------------------------------
_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; background: #f9f9f7; color: #0b0b0b;
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 980px; margin: 0 auto; padding: 24px 20px 48px; }
h1 { font-size: 22px; margin: 0 0 2px; }
h2 { font-size: 16px; margin: 0 0 2px; }
h3 { font-size: 13px; margin: 14px 0 4px; color: #52514e; }
p.provenance { color: #898781; margin: 0 0 18px; font-size: 12px; }
p.sub { color: #52514e; margin: 0 0 10px; font-size: 12px; }
p.empty { color: #898781; font-size: 12px; }
.card {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
}
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 0 0 16px; }
.tile {
  background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);
  border-radius: 8px; padding: 10px 16px; min-width: 108px;
}
.tlabel { display: block; color: #52514e; font-size: 12px; }
.tvalue { display: block; font-size: 24px; font-weight: 600; }
svg { display: block; }
svg .grid { stroke: #e1e0d9; stroke-width: 1; }
svg .axis { stroke: #c3c2b7; stroke-width: 1; }
svg .ref { stroke: #898781; stroke-width: 1; stroke-dasharray: none; }
svg text { font: 11px system-ui, sans-serif; fill: #898781; }
svg text.label, svg text.value { fill: #52514e; }
svg text.flame { font-size: 11px; }
svg .s1 { fill: #2a78d6; }
svg .s2 { fill: #eb6834; }
svg .s3 { fill: #1baf7a; }
svg .dot { stroke: #fcfcfb; stroke-width: 2; }
.legend { display: flex; gap: 18px; color: #52514e; font-size: 12px;
  margin: 0 0 6px; }
.legend .key { display: inline-block; width: 10px; height: 10px;
  border-radius: 5px; margin-right: 5px; }
.legend .key.s1 { background: #2a78d6; }
.legend .key.s2 { background: #eb6834; }
table.data { border-collapse: collapse; font-size: 12px; margin-top: 6px;
  font-variant-numeric: tabular-nums; }
table.data th, table.data td {
  text-align: left; padding: 3px 12px 3px 0;
  border-bottom: 1px solid #e1e0d9;
}
table.data th { color: #52514e; font-weight: 600; }
table.data .num, table.data td.num, table.data th.num { text-align: right; }
details summary { cursor: pointer; color: #52514e; font-size: 12px;
  margin-top: 8px; }
.good { color: #006300; }
.bad { color: #d03b3b; }
.muted { color: #898781; }
svg.spark { display: inline-block; vertical-align: middle; }
svg.spark .line { fill: none; stroke: #2a78d6; stroke-width: 1.5; }
svg.spark .last { fill: #2a78d6; }
svg.spark .anom { fill: #eb6834; }
table.trend td { vertical-align: middle; }
@media (prefers-color-scheme: dark) {
  :root { color-scheme: dark; }
  body { background: #0d0d0d; color: #ffffff; }
  .card, .tile { background: #1a1a19; border-color: rgba(255,255,255,0.10); }
  h3, p.sub, .tlabel, .legend, details summary,
  svg text.label, svg text.value { color: #c3c2b7; fill: #c3c2b7; }
  svg .grid { stroke: #2c2c2a; }
  svg .axis { stroke: #383835; }
  svg .s1 { fill: #3987e5; }
  svg .s2 { fill: #d95926; }
  svg .s3 { fill: #199e70; }
  svg .dot { stroke: #1a1a19; }
  .legend .key.s1 { background: #3987e5; }
  .legend .key.s2 { background: #d95926; }
  table.data th, table.data td { border-bottom-color: #2c2c2a; }
  .good { color: #0ca30c; }
  svg.spark .line { stroke: #3987e5; }
  svg.spark .last { fill: #3987e5; }
  svg.spark .anom { fill: #d95926; }
}
"""


def build_report(
    title: str = "repro batch report",
    loop_records: Optional[List[dict]] = None,
    registry: Optional[dict] = None,
    profile: Optional[dict] = None,
    trace_records: Optional[List[dict]] = None,
    progress_events: Optional[List[ProgressEvent]] = None,
    deltas: Optional[List[MetricDelta]] = None,
    trends: Optional[Dict[str, List]] = None,
) -> str:
    """Render the fused HTML report (pure function; byte-deterministic).

    ``trends`` maps scenario name to its
    :class:`repro.obs.history.MetricTrend` list (what ``--history``
    loads); same palette and determinism rules as every other section.
    """
    provenance = []
    if loop_records is not None:
        provenance.append(f"metrics ({len(loop_records)} loops)")
    if registry is not None:
        provenance.append("metrics registry")
    if profile is not None:
        provenance.append("profile")
    if trace_records is not None:
        provenance.append(f"trace ({len(trace_records)} events)")
    if progress_events is not None:
        provenance.append(f"progress log ({len(progress_events)} events)")
    if deltas is not None:
        provenance.append(f"comparison ({len(deltas)} metrics)")
    if trends:
        provenance.append(f"history ({len(trends)} scenarios)")
    sections: List[str] = [
        f"<h1>{_esc(title)}</h1>",
        '<p class="provenance">inputs: '
        + _esc(" · ".join(provenance) if provenance else "none")
        + "</p>",
        _overview_tiles(loop_records, registry),
    ]
    if profile is not None:
        sections.append(_flame_section(profile))
    if loop_records:
        sections.append(_latency_section(loop_records))
        sections.append(_scatter_section(loop_records))
    sections.append(
        _breakdown_section(loop_records, registry, trace_records, progress_events)
    )
    if progress_events:
        sections.append(_straggler_section(progress_events))
    if deltas is not None:
        sections.append(
            _card("Regression comparison", "", delta_table_html(deltas))
        )
    if trends:
        for scenario in sorted(trends):
            sections.append(_trend_section(scenario, trends[scenario]))
    body = "".join(section for section in sections if section)
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{_esc(title)}</title>\n"
        f"<style>{_CSS}</style></head>\n"
        f"<body><main>{body}</main></body></html>\n"
    )


# ----------------------------------------------------------------------
# CLI (python -m repro report ...)
# ----------------------------------------------------------------------
def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Fuse batch observability artifacts into one "
        "self-contained HTML report (inline SVG, no dependencies).",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        help="per-loop LoopMetrics JSON array (batch --out)",
    )
    parser.add_argument(
        "--registry",
        metavar="PATH",
        help="merged metrics-registry dump (batch --metrics-out)",
    )
    parser.add_argument(
        "--profile",
        metavar="PATH",
        help="profiler span snapshot (batch --profile-out)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="merged scheduler trace JSONL (batch --trace)",
    )
    parser.add_argument(
        "--progress-log",
        metavar="PATH",
        help="progress-event JSONL (batch --progress-log)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="two BENCH_*.json files or directories to diff into a "
        "delta table",
    )
    parser.add_argument(
        "--history",
        metavar="DB",
        help="history JSON-lines file (repro history record) to render "
        "per-scenario trend sections with sparklines",
    )
    parser.add_argument(
        "--history-limit",
        type=positive_int,
        metavar="N",
        help="last N history runs per scenario (default: all)",
    )
    parser.add_argument(
        "--title", default="repro batch report", help="report heading"
    )
    parser.add_argument(
        "--out",
        default="report.html",
        metavar="PATH",
        help="output file (default report.html; '-' writes to stdout)",
    )
    return parser


def report_main(argv: Optional[List[str]] = None) -> int:
    args = build_report_parser().parse_args(argv)
    inputs = (
        args.metrics, args.registry, args.profile, args.trace,
        args.progress_log, args.compare, args.history,
    )
    if not any(inputs):
        print(
            "error: nothing to report — pass at least one of --metrics, "
            "--registry, --profile, --trace, --progress-log, --compare, "
            "--history",
            file=sys.stderr,
        )
        return 2
    try:
        loop_records = load_loop_records(args.metrics) if args.metrics else None
        registry = (
            load_json_object(args.registry, "metrics registry dump")
            if args.registry
            else None
        )
        profile = (
            load_json_object(args.profile, "profiler snapshot")
            if args.profile
            else None
        )
        trace_records = load_trace_records(args.trace) if args.trace else None
        progress_events = (
            load_progress_log(args.progress_log) if args.progress_log else None
        )
        deltas = None
        if args.compare:
            old_path, new_path = args.compare
            deltas = compare_sets(
                collect_bench_files(old_path), collect_bench_files(new_path)
            )
        trends = None
        if args.history:
            store = HistoryStore(args.history)
            trends = {
                scenario: metric_trends(
                    store.runs(scenario, limit=args.history_limit)
                )
                for scenario in store.scenarios()
            }
    except (OSError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    document = build_report(
        title=args.title,
        loop_records=loop_records,
        registry=registry,
        profile=profile,
        trace_records=trace_records,
        progress_events=progress_events,
        deltas=deltas,
        trends=trends,
    )
    if args.out == "-":
        sys.stdout.write(document)
        return 0
    try:
        with open(args.out, "w") as handle:
            handle.write(document)
    except OSError as error:
        print(f"error: cannot write {args.out}: {error}", file=sys.stderr)
        return 2
    print(f"report -> {args.out} ({len(document.encode('utf-8'))} bytes)")
    return 0
