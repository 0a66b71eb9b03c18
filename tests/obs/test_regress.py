"""Regression comparator: thresholds, noise bands, direction, provenance,
and the payload files it is fed through ``history record``."""

import json

import pytest

from repro.obs.history import (
    BENCH_SCHEMA,
    HistoryStore,
    metric,
    wrap_payload,
    write_json,
)
from repro.obs.regress import (
    compare_metric,
    compare_payload_pair,
    gating_regressions,
    print_comparison,
    provenance_mismatches,
    render_table,
    summarize,
)


def _payload(scenario, **metrics):
    return wrap_payload(BENCH_SCHEMA, {"scenario": scenario, "metrics": metrics})


# ----------------------------------------------------------------------
# Threshold logic: regression / improvement / within-noise
# ----------------------------------------------------------------------
def test_flat_threshold_regression_on_deterministic_metric():
    old = metric(100, "ejections", direction="lower")
    new = metric(110, "ejections", direction="lower")
    delta = compare_metric("s", "ejections_total", old, new, threshold=0.02)
    assert delta.status == "regression"
    assert delta.gating is True
    assert delta.worse_by == pytest.approx(0.10)


def test_improvement_is_classified_not_gated():
    old = metric(100, "ejections", direction="lower")
    new = metric(80, "ejections", direction="lower")
    delta = compare_metric("s", "ejections_total", old, new)
    assert delta.status == "improvement"
    assert not delta.is_regression


def test_within_flat_threshold_is_ok():
    old = metric(100, "ejections", direction="lower")
    new = metric(101, "ejections", direction="lower")
    assert compare_metric("s", "e", old, new, threshold=0.02).status == "ok"


def test_recorded_iqr_widens_the_noise_band():
    # +10% on a metric whose IQR was 8% of the old value: with
    # iqr_factor=2 the allowance is 2% + 16% = 18%, so this is noise...
    old = metric(1.0, "s", direction="lower", kind="time", iqr=0.08)
    new = metric(1.10, "s", direction="lower", kind="time", iqr=0.0)
    assert compare_metric("s", "wall", old, new).status == "ok"
    # ...while the same delta with a tight IQR is a real regression.
    old_tight = metric(1.0, "s", direction="lower", kind="time", iqr=0.005)
    assert compare_metric("s", "wall", old_tight, new).status == "regression"


def test_iqr_taken_from_either_side():
    old = metric(1.0, "s", direction="lower", kind="time", iqr=0.0)
    new = metric(1.10, "s", direction="lower", kind="time", iqr=0.08)
    assert compare_metric("s", "wall", old, new).status == "ok"


def test_direction_higher_is_better():
    old = metric(1000, "ops/s", direction="higher", kind="time")
    slower = metric(800, "ops/s", direction="higher", kind="time")
    faster = metric(1300, "ops/s", direction="higher", kind="time")
    assert compare_metric("s", "tput", old, slower).status == "regression"
    assert compare_metric("s", "tput", old, faster).status == "improvement"


def test_time_metrics_gate_only_with_gate_time():
    old = metric(1.0, "s", direction="lower", kind="time")
    new = metric(2.0, "s", direction="lower", kind="time")
    ungated = compare_metric("s", "wall", old, new, gate_time=False)
    gated = compare_metric("s", "wall", old, new, gate_time=True)
    assert ungated.is_regression and not ungated.gating
    assert gated.is_regression and gated.gating
    assert gating_regressions([ungated]) == []
    assert gating_regressions([gated]) == [gated]


def test_added_and_removed_metrics_do_not_gate():
    entry = metric(1.0, "s")
    added = compare_metric("s", "m", None, entry)
    removed = compare_metric("s", "m", entry, None)
    assert added.status == "added" and removed.status == "removed"
    assert not added.gating and not removed.gating


# ----------------------------------------------------------------------
# Payload / set comparison and rendering
# ----------------------------------------------------------------------
def test_compare_payload_pair_covers_metric_union():
    old = _payload("s", a=metric(1, "x"), b=metric(2, "x"))
    new = _payload("s", b=metric(2, "x"), c=metric(3, "x"))
    statuses = {d.name: d.status for d in compare_payload_pair(old, new)}
    assert statuses == {"a": "removed", "b": "ok", "c": "added"}


def test_render_table_lists_moves_and_summary_counts():
    old = _payload("s", e=metric(100, "ejections"), w=metric(1.0, "s", kind="time"))
    new = _payload("s", e=metric(150, "ejections"), w=metric(1.0, "s", kind="time"))
    deltas = compare_payload_pair(old, new)
    table = render_table(deltas)
    assert "| scenario | metric |" in table
    assert "REGRESSION" in table and "+50.0%" in table
    assert "w" not in [line.split("|")[2].strip() for line in table.splitlines()[2:]]
    assert "1 regressed" in summarize(deltas)


def test_render_table_verbose_includes_ok_rows():
    old = _payload("s", e=metric(100, "ejections"))
    deltas = compare_payload_pair(old, old)
    assert "| e |" in render_table(deltas, verbose=True)
    assert "within noise" in render_table(deltas, verbose=False)


# ----------------------------------------------------------------------
# Payload files: what `history record` lets in for compare to read
# ----------------------------------------------------------------------
def test_collect_bench_files_from_dir_and_file(tmp_path):
    # Runs recorded from payload files compare like the payloads
    # themselves; a directory is refused, not scanned.
    old, new = tmp_path / "old.json", tmp_path / "new.json"
    write_json(str(old), _payload("slack", e=metric(100, "ejections")))
    write_json(str(new), _payload("slack", e=metric(200, "ejections")))
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    assert store.record_paths([str(old), str(new)]) == [("slack", 1), ("slack", 2)]
    first, second = store.runs()
    deltas = compare_payload_pair(first.payload, second.payload)
    assert [(d.name, d.status) for d in deltas] == [("e", "regression")]
    with pytest.raises(OSError):
        store.record_paths([str(tmp_path)])


def _refused(tmp_path, body, match):
    """Record ``body`` from a file beside a good one: the whole call is
    refused with ``match`` and nothing reaches the history."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    write_json(str(good), _payload("slack", m=metric(1, "x")))
    bad.write_text(json.dumps(body))
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    with pytest.raises(ValueError, match=match):
        store.record_paths([str(good), str(bad)])
    assert HistoryStore(store.path).runs() == []


def test_collect_bench_files_rejects_mismatched_schema_version(tmp_path):
    payload = _payload("slack", m=metric(1, "x"))
    payload["schema_version"] = 999
    _refused(tmp_path, payload, "bad.json: schema version 999")


def test_collect_bench_files_rejects_wrong_schema(tmp_path):
    _refused(tmp_path, {"schema": "other.thing"}, "bad.json: expected schema")


def test_collect_bench_files_empty_directory_raises(tmp_path):
    good, empty = tmp_path / "good.json", tmp_path / "empty"
    write_json(str(good), _payload("slack", m=metric(1, "x")))
    empty.mkdir()
    store = HistoryStore(str(tmp_path / "h.jsonl"))
    with pytest.raises(OSError):
        store.record_paths([str(good), str(empty)])
    assert HistoryStore(store.path).runs() == []


# ----------------------------------------------------------------------
# Missing metrics
# ----------------------------------------------------------------------
def test_metric_in_old_missing_in_new_is_removed_not_an_error():
    old = _payload("s", gone=metric(1, "x"), kept=metric(2, "x"))
    new = _payload("s", kept=metric(2, "x"))
    statuses = {d.name: d.status for d in compare_payload_pair(old, new)}
    assert statuses["gone"] == "removed" and statuses["kept"] == "ok"
    # A removed metric never gates: CI should flag it, not hard-fail.
    assert gating_regressions(compare_payload_pair(old, new)) == []


# ----------------------------------------------------------------------
# Provenance warnings (satellite: cpu_count joins the envelope)
# ----------------------------------------------------------------------
def test_bench_envelope_carries_cpu_count():
    import os

    payload = _payload("s", m=metric(1, "x"))
    assert payload["cpu_count"] == os.cpu_count()


def test_provenance_mismatch_warns_per_field():
    old = _payload("s", m=metric(1, "x"))
    new = dict(_payload("s", m=metric(1, "x")), cpu_count=1, python="2.7.0")
    old = dict(old, cpu_count=64, python="3.11.0")
    warnings = provenance_mismatches(old, new)
    assert len(warnings) == 2
    assert any("cpu_count" in w for w in warnings)
    assert any("python" in w for w in warnings)


def test_provenance_missing_field_does_not_warn():
    # Baselines recorded before cpu_count existed must not churn.
    old = _payload("s", m=metric(1, "x"))
    old.pop("cpu_count")
    new = dict(_payload("s", m=metric(1, "x")), cpu_count=1)
    assert not any("cpu_count" in w for w in provenance_mismatches(old, new))


def test_print_comparison_warns_on_provenance_of_the_pair(capsys):
    old = dict(_payload("s1", m=metric(1, "x")), cpu_count=64)
    new = dict(_payload("s1", m=metric(2, "x")), cpu_count=1)
    deltas = print_comparison(old, new)
    out = capsys.readouterr().out
    assert [(d.scenario, d.name, d.status) for d in deltas] == [
        ("s1", "m", "regression")
    ]
    assert out.count("warning: provenance mismatch: cpu_count") == 1
    assert "| s1 | m |" in out and "1 regressed" in out
