"""Bench history: JSON-lines store, MAD anomaly rule, trend/compare CLI."""

import json
import pathlib

import pytest

from repro.obs.history import (
    BENCH_SCHEMA,
    HistoryError,
    HistoryStore,
    history_main,
    mad_anomalies,
    metric,
    metric_trends,
    render_trends,
    wrap_payload,
    write_json,
)
from repro.obs.report import report_main

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _payload(scenario, **metrics):
    return wrap_payload(BENCH_SCHEMA, {"scenario": scenario, "metrics": metrics})


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
    # Payload files are ingested; a directory is refused, not scanned.
    slack, warp = tmp_path / "b.json", tmp_path / "a.json"
    write_json(str(slack), _payload("slack", m=metric(1, "x")))
    write_json(str(warp), _payload("warp", m=metric(2, "x")))
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    recorded = store.record_paths([str(slack), str(warp)])
    assert [scenario for scenario, _ in recorded] == ["slack", "warp"]
    for missing_or_directory in (tmp_path / "missing.json", tmp_path):
        with pytest.raises(OSError):
            store.record_paths([str(missing_or_directory)])
    assert len(HistoryStore(store.path).runs()) == 2


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
    flags = mad_anomalies([1.0, 100.0, 1.0, 100.0], "lower", min_points=4)
    assert flags == [False, False, False, False]


def test_mad_flags_a_jump_after_stable_history():
    values = [1.0, 1.01, 0.99, 1.0, 1.02, 1.0, 1.8]
    flags = mad_anomalies(values, "lower")
    assert flags[:-1] == [False] * 6
    assert flags[-1] is True


def test_mad_flat_series_tolerates_float_dust():
    # Identical history has MAD 0; the |median|*0.001 floor must keep
    # round-off from flagging.
    values = [1.0] * 8 + [1.0 + 1e-9]
    assert not any(mad_anomalies(values, "lower"))


def test_mad_skips_none_values_without_flagging():
    values = [1.0, 1.0, None, 1.0, 1.0, 1.0, 5.0]
    flags = mad_anomalies(values, "lower")
    assert flags[2] is False  # the None itself
    assert flags[-1] is True  # judged against the non-None history


def test_mad_window_forgets_old_history():
    # After eight points at the new level, the old level drops out of
    # the trailing window, so returning to it IS anomalous (a drop, for
    # a metric where higher is better).
    values = [1.0] * 6 + [2.0] * 9 + [1.0]
    flags = mad_anomalies(values, "higher", window=8)
    assert flags[-1] is True


def test_mad_judges_a_metric_by_its_direction():
    # The same jump is a regression for one direction and a gain, never
    # flagged, for the other.
    stable = [100.0, 101.0, 99.0, 100.0, 102.0, 100.0]
    rise, drop = stable + [180.0], stable + [40.0]
    assert mad_anomalies(rise, "higher")[-1] is False
    assert mad_anomalies(drop, "higher")[-1] is True
    assert mad_anomalies(rise, "lower")[-1] is True
    assert mad_anomalies(drop, "lower")[-1] is False
    with pytest.raises(ValueError, match="direction"):
        mad_anomalies(rise, "sideways")


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
def _seed_db(tmp_path, walls, **provenance):
    """A DB of ``slack`` runs, one per wall time; ``provenance`` maps an
    envelope field to the value each run carries, in order."""
    db = str(tmp_path / "h.jsonl")
    store = HistoryStore(db)
    for index, wall in enumerate(walls):
        payload = _payload("slack", wall_s=metric(wall, "s", kind="time"))
        payload.update({field: values[index] for field, values in provenance.items()})
        store.record_payload("slack", payload)
    return db


def test_cli_record_show_trend(tmp_path, capsys):
    path = tmp_path / "slack.json"
    write_json(str(path), _payload("slack", m=metric(1, "x")))
    db = str(tmp_path / "h.jsonl")
    assert history_main(["record", "--db", db, str(path)]) == 0
    out = capsys.readouterr().out
    assert "recorded slack as run #1" in out

    assert history_main(["show", "--db", db]) == 0
    assert "=== slack (1 run(s)) ===" in capsys.readouterr().out

    assert history_main(["trend", "--db", db]) == 0
    assert "=== trend: slack" in capsys.readouterr().out


def test_cli_record_bad_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"schema\": \"nope\"}")
    assert history_main(["record", "--db", str(tmp_path / "h.jsonl"), str(bad)]) == 2


def test_cli_record_with_one_bad_file_records_nothing(tmp_path):
    # Every file is checked before the first line is appended.
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    write_json(str(good), _payload("a", m=metric(1, "x")))
    bad.write_text('{"schema": "nope"}')
    db = str(tmp_path / "h.jsonl")
    assert history_main(["record", "--db", db, str(good), str(bad)]) == 2
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


def test_cli_compare_gates_a_time_regression(tmp_path, capsys):
    # The last run is 80% slower on a host with another CPU count:
    # compare reports the regression and the provenance mismatch, and
    # gates on the time metric only when asked to.
    db = _seed_db(tmp_path, [1.0, 1.0, 1.8], cpu_count=[64, 64, 1])
    assert history_main(["compare", "--db", db, "--fail-on-regress"]) == 0
    assert (
        history_main(
            ["compare", "--db", db, "--gate-time", "--fail-on-regress"]
        )
        == 1
    )
    out = capsys.readouterr().out
    assert "run #2 -> #3" in out
    assert "| slack | wall_s | 1.000 | 1.800 | +80.0% |" in out
    assert "REGRESSION" in out
    assert "provenance mismatch: cpu_count differs" in out
    assert "FAIL: gating regression(s) detected" in out


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


_ENTRY = {"value": 1.0, "unit": "x", "direction": "lower", "kind": "count", "iqr": 0.0}


@pytest.mark.parametrize(
    "metrics",
    [
        pytest.param({"x": 5}, id="entry-not-an-object"),
        pytest.param([1], id="metrics-a-list"),
        pytest.param(None, id="metrics-null"),
        pytest.param({"x": dict(_ENTRY, value="abc")}, id="value-a-string"),
        pytest.param({"x": dict(_ENTRY, value=True)}, id="value-a-bool"),
        pytest.param({"x": dict(_ENTRY, value=float("nan"))}, id="value-nan"),
        pytest.param({"x": dict(_ENTRY, unit=3)}, id="unit-not-a-string"),
        pytest.param({"x": dict(_ENTRY, direction="up")}, id="direction-unknown"),
        pytest.param({"x": dict(_ENTRY, kind="vibes")}, id="kind-unknown"),
        pytest.param({"x": dict(_ENTRY, iqr="wide")}, id="iqr-not-a-number"),
        pytest.param(
            {"x": {k: v for k, v in _ENTRY.items() if k != "iqr"}}, id="iqr-missing"
        ),
    ],
)
def test_malformed_metrics_are_refused_on_record_and_on_read(tmp_path, capsys, metrics):
    bad = dict(_payload("s"), metrics=metrics)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    db = tmp_path / "h.jsonl"
    assert history_main(["record", "--db", str(db), str(path)]) == 2
    assert "bad.json: metric" in capsys.readouterr().out
    assert not db.exists()
    # A line that got in by hand stops every reader with exit 2, which
    # --fail-on-anomaly and --fail-on-regress never use for a finding.
    good = _payload("s", x=metric(1, "x"))
    db.write_text(
        "".join(
            json.dumps({"payload": payload, "recorded_unix": 0, "scenario": "s"}) + "\n"
            for payload in (good, bad)
        )
    )
    for command in ("show", "trend", "compare"):
        assert history_main([command, "--db", str(db)]) == 2, command
        assert "h.jsonl:2: metric" in capsys.readouterr().out, command
    report = ["--history", str(db), "--out", str(tmp_path / "r.html")]
    assert report_main(report) == 2
    assert "h.jsonl:2: metric" in capsys.readouterr().err


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


def test_committed_history_trend_flags_only_regressions(capsys):
    # Judged by direction, the committed trajectory's gains (loops/s
    # rising, peak RSS falling) are not anomalies; two set-up times that
    # rose are.  A point is judged on earlier points only, so later
    # lines cannot change the flags of runs 1-82.
    db = str(ROOT / "benchmarks" / "history.jsonl")
    assert history_main(["trend", "--db", db, "--json"]) == 0
    flagged = {
        (row["scenario"], row["metric"], run_id)
        for row in json.loads(capsys.readouterr().out)
        for run_id, anomalous in zip(row["run_ids"], row["anomalies"])
        if anomalous and run_id <= 82
    }
    assert flagged == {
        ("pipeline.gpu", "setup_s", 65),
        ("pipeline.service", "setup_s", 66),
    }
