"""CLI: ``--metrics-out`` dumps the registry in the bench envelope."""

import json

from repro.cli import main
from repro.obs.history import BENCH_SCHEMA_VERSION, METRICS_SCHEMA


def test_metrics_out_dumps_registry_snapshot(tmp_path, capsys):
    path = tmp_path / "metrics.json"
    assert main(["--demo", "--metrics-out", str(path)]) == 0
    assert "metrics:" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert payload["schema"] == METRICS_SCHEMA
    assert payload["schema_version"] == BENCH_SCHEMA_VERSION
    assert payload["loop"] == "figure1"
    snapshot = payload["metrics"]
    assert snapshot["counters"]["scheduler.attempts"] >= 1
    place = snapshot["spans"]["driver.attempt;driver.place"]
    assert place["calls"] == snapshot["counters"]["scheduler.attempts"]
    assert "timers" not in snapshot


def test_metrics_out_write_failure_is_reported(tmp_path, capsys):
    target = tmp_path / "no-such-dir" / "metrics.json"
    assert main(["--demo", "--metrics-out", str(target)]) == 1
    assert "cannot write metrics" in capsys.readouterr().err
