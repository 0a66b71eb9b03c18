"""The HTML report builder: determinism, section wiring, the CLI."""

import json

from repro.obs.bench import BENCH_SCHEMA, metric, wrap_payload
from repro.obs.progress import ProgressEvent
from repro.obs.regress import compare_sets
from repro.obs.report import (
    build_report,
    delta_table_html,
    flamegraph_svg,
    histogram_svg,
    report_main,
    scatter_svg,
    sparkline_svg,
)

LOOP_RECORDS = [
    {
        "name": "ll1", "success": True, "ii": 4, "mii": 4,
        "min_avg": 6.0, "max_live": 7, "scheduling_seconds": 0.010,
        "failure_reason": None,
    },
    {
        "name": "ll2", "success": True, "ii": 6, "mii": 5,
        "min_avg": 9.5, "max_live": 12, "scheduling_seconds": 0.025,
        "failure_reason": None,
    },
    {
        "name": "ll3", "success": False, "ii": 0, "mii": 5,
        "min_avg": 0.0, "max_live": 0, "scheduling_seconds": 0.080,
        "failure_reason": "ii_cap",
    },
]

REGISTRY = {
    "counters": {
        "service.cache.hits": 2,
        "service.cache.misses": 1,
        "service.progress.submitted": 3,
        "service.progress.finished": 2,
        "service.stragglers.flagged": 1,
    },
    "gauges": {},
    "timers": {},
    "histogram_values": {"service.job.seconds": [0.01, 0.025, 0.08]},
}

PROFILE = {
    "spans": {
        "driver": {"calls": 3, "cum_seconds": 0.10, "self_seconds": 0.02},
        "driver;mindist": {
            "calls": 3, "cum_seconds": 0.05, "self_seconds": 0.05,
        },
        "driver;schedule": {
            "calls": 3, "cum_seconds": 0.03, "self_seconds": 0.03,
        },
    },
    "counters": {"scan.ops": 42},
    "peak_memory_bytes": 1_000_000,
}

PROGRESS = [
    ProgressEvent(kind="submitted", job=0, loop="ll1", ts=1.0),
    ProgressEvent(kind="started", job=0, loop="ll1", ts=1.1),
    ProgressEvent(
        kind="straggler", job=0, loop="ll1", ts=2.0, seconds=0.9, ratio=6.2
    ),
    ProgressEvent(
        kind="finished", job=0, loop="ll1", ts=2.0, status="ok", seconds=0.9
    ),
]


def _bench_payload(value):
    return wrap_payload(
        BENCH_SCHEMA,
        {
            "scenario": "slack",
            "metrics": {"mean_ii": metric(value, "cycles", direction="lower")},
        },
    )


def _full_report():
    deltas = compare_sets(
        {"slack": _bench_payload(5.0)}, {"slack": _bench_payload(6.0)}
    )
    return build_report(
        title="test report",
        loop_records=LOOP_RECORDS,
        registry=REGISTRY,
        profile=PROFILE,
        trace_records=[{"type": "place"}, {"type": "place"}, {"type": "eject"}],
        progress_events=PROGRESS,
        deltas=deltas,
    )


def test_report_is_byte_deterministic():
    assert _full_report() == _full_report()


def test_report_contains_every_section_and_no_scripts():
    document = _full_report()
    for fragment in (
        "Where the time went",
        "Scheduling latency distribution",
        "Register pressure vs the MinAvg bound",
        "Breakdowns",
        "Stragglers",
        "Regression comparison",
        "Cache hit rate",
        "Job latency p99",
    ):
        assert fragment in document
    assert "<script" not in document
    assert "http://" not in document and "https://" not in document


def test_report_with_no_inputs_is_still_valid():
    document = build_report(title="empty")
    assert document.startswith("<!DOCTYPE html>")
    assert "empty" in document


def test_loop_names_are_escaped():
    records = [dict(LOOP_RECORDS[0], name="<b>&nasty")]
    document = build_report(loop_records=records)
    assert "<b>&nasty" not in document
    assert "&lt;b&gt;&amp;nasty" in document


def test_histogram_svg_handles_identical_values():
    svg = histogram_svg([5.0, 5.0, 5.0])
    assert "<path" in svg and "NaN" not in svg


def test_scatter_svg_two_series_with_legend():
    svg = scatter_svg([(6.0, 7.0, "a", True), (9.0, 12.0, "b", False)])
    assert svg.count('class="dot') == 2
    assert "II = MII" in svg and "legend" in svg


def test_flamegraph_nests_children_inside_parents():
    svg = flamegraph_svg(PROFILE["spans"])
    assert svg.count("<rect") == 3
    assert "driver &gt; mindist" in svg


def test_delta_table_marks_regressions():
    deltas = compare_sets(
        {"slack": _bench_payload(5.0)}, {"slack": _bench_payload(6.0)}
    )
    table = delta_table_html(deltas)
    assert "regression" in table
    assert "&#9650;" in table  # icon + word, never color alone


def test_report_cli_end_to_end(tmp_path, capsys):
    metrics_path = tmp_path / "m.json"
    metrics_path.write_text(json.dumps(LOOP_RECORDS))
    registry_path = tmp_path / "reg.json"
    registry_path.write_text(json.dumps(REGISTRY))
    out = tmp_path / "report.html"
    code = report_main(
        [
            "--metrics", str(metrics_path),
            "--registry", str(registry_path),
            "--out", str(out),
        ]
    )
    assert code == 0
    document = out.read_text()
    assert "Scheduling latency distribution" in document
    assert "report ->" in capsys.readouterr().out
    # Second render of the same inputs is byte-identical.
    out2 = tmp_path / "report2.html"
    assert report_main(
        [
            "--metrics", str(metrics_path),
            "--registry", str(registry_path),
            "--out", str(out2),
        ]
    ) == 0
    assert out2.read_text() == document


def test_report_cli_requires_an_input(capsys):
    assert report_main(["--out", "x.html"]) == 2
    assert "nothing to report" in capsys.readouterr().err


# ----------------------------------------------------------------------
# History trend sections
# ----------------------------------------------------------------------
def _history_db(tmp_path, walls):
    from repro.obs.bench import metric as _metric
    from repro.obs.history import HistoryStore

    db = str(tmp_path / "h.jsonl")
    store = HistoryStore(db)
    for wall in walls:
        store.record_payload(
            "slack",
            wrap_payload(
                BENCH_SCHEMA,
                {
                    "scenario": "slack",
                    "metrics": {"wall_s": _metric(wall, "s", kind="time")},
                },
            ),
        )
    return db


def test_sparkline_svg_marks_anomalies_and_latest():
    svg = sparkline_svg([1.0, 1.0, None, 1.0, 2.0], [False] * 4 + [True])
    assert '<polyline class="line"' in svg
    assert svg.count('class="anom"') == 1
    assert 'class="last"' in svg
    assert "NaN" not in svg
    assert sparkline_svg([None, None], [False, False]) == (
        '<span class="empty">no data</span>'
    )


def test_report_renders_trend_section_deterministically(tmp_path):
    from repro.obs.history import HistoryStore, metric_trends

    db = _history_db(tmp_path, [1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 1.01, 1.9])
    store = HistoryStore(db)
    trends = {"slack": metric_trends(store.runs("slack"))}
    document = build_report(trends=trends)
    assert document == build_report(trends=trends)
    assert "History: slack" in document
    assert "history (1 scenarios)" in document
    assert '<polyline class="line"' in document
    assert 'class="anom"' in document  # the doctored jump is flagged


def test_report_cli_history_end_to_end(tmp_path, capsys):
    db = _history_db(tmp_path, [1.0, 1.0, 1.0])
    out = tmp_path / "report.html"
    assert report_main(["--history", db, "--out", str(out)]) == 0
    document = out.read_text()
    assert "History: slack" in document and "wall_s" in document
    capsys.readouterr()
    # --history alone satisfies the input requirement; bad DBs exit 2.
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not a database")
    assert report_main(["--history", str(bad), "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err


def test_report_cli_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert report_main(["--metrics", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
