"""The bench payload envelope (schema ``repro.bench``) that history
lines carry: metric entries, corpus aggregates, file round-trips."""

import json

import pytest

from repro.experiments.metrics import LoopMetrics
from repro.obs.history import (
    BENCH_SCHEMA,
    BENCH_SCHEMA_VERSION,
    corpus_aggregates,
    git_sha,
    load_payload,
    metric,
    wrap_payload,
    write_json,
)


def _loop_metrics(name="l", success=True, n_ops=10, ii=3, mii=3,
                  max_live=12, min_avg=10, attempts=1, ejections=0):
    return LoopMetrics(
        name=name, klass="neither", n_basic_blocks=1, n_ops=n_ops,
        n_critical_ops_at_mii=0, n_recurrence_ops=0, n_div_ops=0,
        rec_mii=1, res_mii=mii, mii=mii, min_avg_at_mii=min_avg, gprs=2,
        success=success, ii=ii, span=ii * 2, stages=2,
        max_live=max_live, min_avg=min_avg, icr=1,
        attempts=attempts, placements=n_ops, forced=0, ejections=ejections,
        mindist_seconds=0.0, scheduling_seconds=0.0, recmii_seconds=0.0,
    )


# ----------------------------------------------------------------------
# Metric entries and aggregates
# ----------------------------------------------------------------------
def test_metric_validates_direction_and_kind():
    entry = metric(1.5, "s", direction="lower", kind="time", iqr=0.1)
    assert entry == {
        "value": 1.5, "unit": "s", "direction": "lower",
        "kind": "time", "iqr": 0.1,
    }
    with pytest.raises(ValueError):
        metric(1.0, "s", direction="sideways")
    with pytest.raises(ValueError):
        metric(1.0, "s", kind="vibes")


def test_corpus_aggregates_ratios_and_totals():
    metrics = [
        _loop_metrics("a", ii=3, mii=3, max_live=10, min_avg=10),
        _loop_metrics("b", ii=4, mii=3, max_live=15, min_avg=10, ejections=5),
        _loop_metrics("c", success=False, attempts=15),
    ]
    agg = corpus_aggregates(metrics)
    assert agg["loops"]["value"] == 3
    assert agg["loops_scheduled"]["value"] == 2
    assert agg["success_rate"]["value"] == pytest.approx(2 / 3)
    assert agg["ii_over_mii"]["value"] == pytest.approx(7 / 6)
    assert agg["maxlive_over_minavg"]["value"] == pytest.approx(25 / 20)
    assert agg["ejections_total"]["value"] == 5
    assert agg["attempts_total"]["value"] == 17
    # Failed loops contribute no ops to throughput.
    assert agg["ops_scheduled"]["value"] == 20


def test_corpus_aggregates_empty_corpus():
    agg = corpus_aggregates([])
    assert agg["loops"]["value"] == 0
    assert agg["success_rate"]["value"] == 0.0
    assert agg["ii_over_mii"]["value"] == 0.0


# ----------------------------------------------------------------------
# Schema round-trip
# ----------------------------------------------------------------------
def test_payload_round_trips_through_disk(tmp_path):
    payload = wrap_payload(
        BENCH_SCHEMA, {"scenario": "x", "metrics": {"m": metric(1.5, "s")}}
    )
    path = tmp_path / "x.json"
    write_json(str(path), payload)
    loaded = load_payload(str(path))
    assert loaded == json.loads(json.dumps(payload))  # JSON-safe
    assert loaded["schema"] == BENCH_SCHEMA
    assert loaded["schema_version"] == BENCH_SCHEMA_VERSION
    assert loaded["scenario"] == "x"
    assert "python" in loaded and "platform" in loaded


def test_load_payload_rejects_wrong_schema_and_version(tmp_path):
    path = tmp_path / "bad.json"
    write_json(str(path), {"schema": "other", "schema_version": BENCH_SCHEMA_VERSION})
    with pytest.raises(ValueError, match="schema"):
        load_payload(str(path))
    write_json(
        str(path), {"schema": BENCH_SCHEMA, "schema_version": BENCH_SCHEMA_VERSION + 1}
    )
    with pytest.raises(ValueError, match="version"):
        load_payload(str(path))


def test_git_sha_in_repo_is_hexish():
    sha = git_sha()
    # In this checkout a SHA must come back; elsewhere None is legal.
    if sha is not None:
        assert len(sha) == 40
        int(sha, 16)
