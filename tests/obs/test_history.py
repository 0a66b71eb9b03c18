"""Bench history: JSON-lines store, MAD anomaly rule, trend/compare CLI."""

import json
import pathlib

import pytest

from repro.obs.bench import BENCH_SCHEMA, metric, wrap_payload, write_json
from repro.obs.history import (
    HistoryError,
    HistoryStore,
    history_main,
    mad_anomalies,
    metric_trends,
    render_trends,
)
from repro.obs.report import report_main

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _payload(scenario, profile=None, **metrics):
    body = {"scenario": scenario, "metrics": metrics}
    if profile is not None:
        body["profile"] = profile
    return wrap_payload(BENCH_SCHEMA, body)


def _profile(**spans):
    return {
        "spans": {
            path: {"calls": 1, "cum_seconds": self_s, "self_seconds": self_s}
            for path, self_s in spans.items()
        }
    }


# ----------------------------------------------------------------------
# Store: append-only recording and querying
# ----------------------------------------------------------------------
def test_record_and_query_roundtrip(tmp_path):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    payload = _payload("slack", wall_s=metric(1.0, "s", kind="time"))
    run_id = store.record_payload("slack", payload)
    run = store.get(run_id)
    assert run.scenario == "slack"
    assert run.payload == payload
    assert run.cpu_count == payload["cpu_count"]
    assert store.scenarios() == ["slack"]


def test_record_is_deterministic_modulo_provenance(tmp_path):
    # Recording the identical payload twice must store byte-identical
    # canonical JSON; only recorded_unix (a line field) may differ.
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    payload = _payload("slack", ej=metric(12, "ejections"))
    first = store.record_payload("slack", payload)
    second = store.record_payload("slack", payload)
    rows = store.runs("slack")
    assert [run.run_id for run in rows] == [first, second]
    assert (
        json.dumps(rows[0].payload, sort_keys=True)
        == json.dumps(rows[1].payload, sort_keys=True)
    )
    assert rows[0].recorded_unix <= rows[1].recorded_unix


def test_record_payload_rejects_wrong_schema(tmp_path):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    with pytest.raises(ValueError, match="cannot record schema"):
        store.record_payload("s", {"schema": "something.else"})


def test_record_paths_ingests_files_and_dirs(tmp_path):
    bench_dir = tmp_path / "out"
    bench_dir.mkdir()
    write_json(str(bench_dir / "BENCH_slack.json"), _payload("slack", m=metric(1, "x")))
    write_json(str(bench_dir / "BENCH_warp.json"), _payload("warp", m=metric(2, "x")))
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    recorded = store.record_paths([str(bench_dir)])
    assert [scenario for scenario, _ in recorded] == ["slack", "warp"]
    with pytest.raises(FileNotFoundError):
        store.record_paths([str(tmp_path / "empty")])


def test_runs_limit_returns_most_recent_oldest_first(tmp_path):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    ids = [
        store.record_payload("s", _payload("s", m=metric(i, "x")))
        for i in range(5)
    ]
    window = store.runs("s", limit=2)
    assert [run.run_id for run in window] == ids[-2:]


def test_get_missing_run_raises_keyerror(tmp_path):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    with pytest.raises(KeyError):
        store.get(999)


def test_malformed_line_raises_historyerror(tmp_path):
    path = str(tmp_path / "h.jsonl")
    store = HistoryStore(path)
    store.record_payload("s", _payload("s", m=metric(1, "x")))
    with open(path, "a") as handle:
        handle.write("{not json\n")
    with pytest.raises(HistoryError, match=r"h\.jsonl:2: "):
        HistoryStore(path)


# ----------------------------------------------------------------------
# MAD anomaly rule
# ----------------------------------------------------------------------
def test_mad_needs_min_points_before_judging():
    # First four points can never be flagged, however wild.
    flags = mad_anomalies([1.0, 100.0, 1.0, 100.0], min_points=4)
    assert flags == [False, False, False, False]


def test_mad_flags_a_jump_after_stable_history():
    values = [1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 1.8]
    flags = mad_anomalies(values)
    assert flags[:-1] == [False] * 6
    assert flags[-1] is True


def test_mad_flat_series_tolerates_float_dust():
    # Identical history has MAD 0; the |median|*0.001 floor must keep
    # round-off from flagging.
    values = [1.0] * 8 + [1.0 + 1e-9]
    assert not any(mad_anomalies(values))


def test_mad_skips_none_values_without_flagging():
    values = [1.0, 1.0, None, 1.0, 1.0, 1.0, 5.0]
    flags = mad_anomalies(values)
    assert flags[2] is False  # the None itself
    assert flags[-1] is True  # judged against the non-None history


def test_mad_window_forgets_old_history():
    # After eight points at the new level, the old level drops out of
    # the trailing window, so returning to it IS anomalous.
    values = [1.0] * 6 + [2.0] * 9 + [1.0]
    flags = mad_anomalies(values, window=8)
    assert flags[-1] is True


# ----------------------------------------------------------------------
# Trends over recorded runs
# ----------------------------------------------------------------------
def _record_series(store, scenario, walls):
    for wall in walls:
        store.record_payload(
            scenario,
            _payload(
                scenario,
                wall_s=metric(wall, "s", kind="time"),
                ejections=metric(10, "ejections"),
            ),
        )


def test_metric_trends_flags_synthetic_drift(tmp_path):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    _record_series(store, "slack", [1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 1.01, 1.9])
    trends = metric_trends(store.runs("slack"))
    by_name = {trend.name: trend for trend in trends}
    assert set(by_name) == {"wall_s", "ejections"}
    assert by_name["wall_s"].latest_anomalous
    assert by_name["wall_s"].anomaly_count == 1
    assert not by_name["ejections"].anomaly_count
    rendered = render_trends(trends)
    assert "ANOMALY" in rendered and "wall_s" in rendered
    assert "(no anomalies)" in render_trends(
        [by_name["ejections"]], anomalies_only=True
    )


def test_metric_trends_cover_metrics_missing_in_some_runs(tmp_path):
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    store.record_payload("s", _payload("s", a=metric(1, "x")))
    store.record_payload("s", _payload("s", a=metric(1, "x"), b=metric(2, "x")))
    trends = {t.name: t for t in metric_trends(store.runs("s"))}
    assert trends["b"].values == [None, 2.0]
    assert trends["b"].latest == 2.0


# ----------------------------------------------------------------------
# CLI: record / show / trend / compare
# ----------------------------------------------------------------------
def _seed_db(tmp_path, walls, spans_old=None, spans_new=None):
    """A DB whose last run may carry a doctored profile snapshot."""
    db = str(tmp_path / "h.jsonl")
    store = HistoryStore(db)
    for index, wall in enumerate(walls):
        profile = None
        if index == len(walls) - 2 and spans_old is not None:
            profile = _profile(**spans_old)
        if index == len(walls) - 1 and spans_new is not None:
            profile = _profile(**spans_new)
        store.record_payload(
            "slack",
            _payload("slack", profile=profile, wall_s=metric(wall, "s", kind="time")),
        )
    return db


def test_cli_record_show_trend(tmp_path, capsys):
    bench_dir = tmp_path / "out"
    bench_dir.mkdir()
    write_json(str(bench_dir / "BENCH_slack.json"), _payload("slack", m=metric(1, "x")))
    db = str(tmp_path / "h.jsonl")
    assert history_main(["record", "--db", db, str(bench_dir)]) == 0
    out = capsys.readouterr().out
    assert "recorded slack as run #1" in out

    assert history_main(["show", "--db", db]) == 0
    assert "=== slack (1 run(s)) ===" in capsys.readouterr().out

    assert history_main(["trend", "--db", db]) == 0
    assert "=== trend: slack" in capsys.readouterr().out


def test_cli_record_bad_file_exits_2(tmp_path):
    bad = tmp_path / "BENCH_bad.json"
    bad.write_text("{\"schema\": \"nope\"}")
    assert history_main(["record", "--db", str(tmp_path / "h.jsonl"), str(bad)]) == 2


def test_cli_record_with_one_bad_file_records_nothing(tmp_path):
    # Every file is checked before the first line is appended.
    bench_dir = tmp_path / "out"
    bench_dir.mkdir()
    write_json(str(bench_dir / "BENCH_a.json"), _payload("a", m=metric(1, "x")))
    (bench_dir / "BENCH_b.json").write_text('{"schema": "nope"}')
    db = str(tmp_path / "h.jsonl")
    assert history_main(["record", "--db", db, str(bench_dir)]) == 2
    assert HistoryStore(db).runs() == []


@pytest.mark.parametrize(
    "main, argv",
    [
        (history_main, ["trend", "--window", "0"]),
        (history_main, ["trend", "--window", "-1"]),
        (history_main, ["trend", "--limit", "0"]),
        (history_main, ["trend", "--limit", "-1"]),
        (history_main, ["show", "--limit", "0"]),
        (history_main, ["show", "--limit", "-1"]),
        (history_main, ["trend", "--mad-k", "0"]),
        (history_main, ["trend", "--mad-k", "-3.5"]),
        (report_main, ["--history-limit", "0"]),
        (report_main, ["--history-limit", "-1"]),
    ],
)
def test_cli_rejects_out_of_range_windows_and_limits(tmp_path, main, argv):
    db = _seed_db(tmp_path, [1.0, 1.0])
    if main is report_main:
        argv = ["--history", db, "--out", str(tmp_path / "r.html")] + argv
    else:
        argv = argv[:1] + ["--db", db] + argv[1:]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2


def test_cli_trend_fail_on_anomaly(tmp_path, capsys):
    db = _seed_db(tmp_path, [1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 1.01, 1.9])
    assert history_main(["trend", "--db", db]) == 0
    assert history_main(["trend", "--db", db, "--fail-on-anomaly"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_cli_trend_json_is_machine_readable(tmp_path, capsys):
    db = _seed_db(tmp_path, [1.0, 1.0, 1.0])
    assert history_main(["trend", "--db", db, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["metric"] == "wall_s"
    assert payload[0]["values"] == [1.0, 1.0, 1.0]


def test_cli_compare_names_the_guilty_span(tmp_path, capsys):
    # The last run is 80% slower, and its profile says the driver span
    # gained all of it: compare must print the attribution and gate.
    db = _seed_db(
        tmp_path,
        [1.0, 1.0, 1.8],
        spans_old={"driver": 0.2, "framework/slack": 0.5},
        spans_new={"driver": 1.0, "framework/slack": 0.5},
    )
    assert (
        history_main(
            ["compare", "--db", db, "--gate-time", "--fail-on-regress"]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "span attribution" in out
    assert "driver" in out and "+800.00ms self" in out
    assert "100% of the slowdown" in out


def test_cli_compare_explicit_run_ids_and_errors(tmp_path, capsys):
    db = _seed_db(tmp_path, [1.0, 1.0])
    assert history_main(["compare", "--db", db, "--old", "1", "--new", "2"]) == 0
    assert "run #1 -> #2" in capsys.readouterr().out
    # Half a pair is a usage error; a missing id is a lookup error.
    assert history_main(["compare", "--db", db, "--old", "1"]) == 2
    assert history_main(["compare", "--db", db, "--old", "1", "--new", "99"]) == 2


def test_cli_compare_single_run_scenario_is_skipped(tmp_path, capsys):
    db = _seed_db(tmp_path, [1.0])
    assert history_main(["compare", "--db", db]) == 2
    out = capsys.readouterr().out
    assert "fewer than two runs" in out and "nothing to compare" in out


def test_cli_malformed_line_exits_2(tmp_path, capsys):
    db = tmp_path / "h.jsonl"
    db.write_text(
        '{"payload": {"schema": "nope"}, "recorded_unix": 0, "scenario": "s"}\n'
    )
    assert history_main(["show", "--db", str(db)]) == 2
    assert "h.jsonl:1: expected schema" in capsys.readouterr().out


def test_committed_history_loads_and_names_benchmark_metrics():
    # benchmarks/history.jsonl holds the pipeline benchmark's trajectory:
    # each pipeline.<workload> line names a workload and only end-to-end
    # metrics of BENCHMARK.json, with their units and directions.
    store = HistoryStore(str(ROOT / "benchmarks" / "history.jsonl"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {entry["name"] for entry in spec["workloads"]}
    end_to_end = {entry["name"]: entry for entry in spec["end_to_end"]}
    pipeline = [run for run in store.runs() if run.scenario.startswith("pipeline.")]
    assert pipeline
    for run in pipeline:
        assert run.scenario.split(".", 1)[1] in workloads, run.scenario
        for name, entry in run.payload["metrics"].items():
            assert name in end_to_end, (run.run_id, name)
            assert entry["unit"] == end_to_end[name]["unit"], (run.run_id, name)
            assert entry["direction"] == end_to_end[name]["better"], (run.run_id, name)
