"""Batch API + CLI: caching semantics, obs counters, robustness."""

import json
import os

import pytest

from repro.machine import cydra5
from repro.obs import MetricsRegistry, Observer
from repro.obs.progress import JSONLProgress
from repro.service.batch import run_batch
from repro.service.batch_cli import batch_main
from repro.workloads import paper_corpus

MACHINE = cydra5()


# ----------------------------------------------------------------------
# run_batch API
# ----------------------------------------------------------------------
def test_cold_then_warm_cache(tmp_path):
    programs = paper_corpus(6)
    cache_dir = str(tmp_path / "cache")
    cold = run_batch(programs, MACHINE, cache_dir=cache_dir)
    assert cold.ok
    assert cold.cache.misses == 6 and cold.cache.hits == 0
    warm = run_batch(programs, MACHINE, cache_dir=cache_dir)
    assert warm.ok
    assert warm.cache.hits == 6 and warm.cache.misses == 0
    assert warm.counts() == {"cached": 6}
    # Warm metrics are identical to cold — including timing fields,
    # because the cache preserves the original run's measurements.
    assert warm.loop_metrics == cold.loop_metrics


def test_no_cache_dir_disables_cache():
    report = run_batch(paper_corpus(2), MACHINE, cache_dir=None)
    assert report.cache is None and report.ok


def test_injected_fault_skips_cache_hit(tmp_path):
    cache_dir = str(tmp_path)
    run_batch(paper_corpus(2), MACHINE, cache_dir=cache_dir)
    report = run_batch(
        paper_corpus(2), MACHINE, cache_dir=cache_dir, faults={0: "raise"}
    )
    assert report.results[0].status == "failed"
    assert report.results[1].status == "cached"


def test_obs_registry_receives_service_counters(tmp_path):
    registry = MetricsRegistry()
    report = run_batch(
        paper_corpus(3), MACHINE, cache_dir=str(tmp_path),
        observer=Observer(metrics=registry),
    )
    snapshot = registry.snapshot()
    assert snapshot["counters"]["service.jobs.ok"] == 3
    assert snapshot["counters"]["service.cache.misses"] == 3
    assert snapshot["counters"]["service.cache.writes"] == 3
    assert "service.pool.utilization" in snapshot["gauges"]
    # The batch times itself in one span: its seconds are the report's.
    batch = snapshot["spans"]["service.batch"]
    assert batch["calls"] == 1
    assert batch["cum_seconds"] == report.wall_seconds > 0.0


def test_run_corpus_service_path_matches_serial(tmp_path):
    from repro.experiments import run_corpus
    from repro.experiments.export import to_json

    programs = paper_corpus(6)
    serial = run_corpus(programs, MACHINE)
    service = run_corpus(
        programs, MACHINE, jobs=2, cache_dir=str(tmp_path / "cache")
    )
    assert to_json(serial, drop_timings=True) == to_json(
        service, drop_timings=True
    )
    # Warm rerun through the same entry point hits the cache and is
    # byte-identical to the first service pass, timings included.
    warm = run_corpus(programs, MACHINE, jobs=2, cache_dir=str(tmp_path / "cache"))
    assert to_json(warm) == to_json(service)


def test_summary_mentions_faults():
    report = run_batch(paper_corpus(3), MACHINE, faults={1: "raise"})
    text = report.summary()
    assert "failed=1" in text and "FAILED" in text
    assert not report.ok


# ----------------------------------------------------------------------
# run_batch closes its progress log when set-up raises
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", ["two-caches", "straggler-factor", "backend-name"])
def test_progress_log_is_closed_when_setup_raises(tmp_path, monkeypatch, bad):
    from repro.service import batch

    handles = []

    class _Recording(JSONLProgress):
        def __init__(self, path):
            super().__init__(path)
            handles.append(self._handle)

    monkeypatch.setattr(batch, "JSONLProgress", _Recording)
    log = tmp_path / "progress.jsonl"
    kwargs = {"progress_log": str(log)}
    if bad == "two-caches":
        kwargs.update(cache_dir=str(tmp_path / "dir"), cache_url="http://127.0.0.1:1")
    elif bad == "straggler-factor":
        kwargs.update(straggler_factor=0.5)
    else:
        kwargs.update(backend="threads")
    with pytest.raises(ValueError):
        run_batch(paper_corpus(1), MACHINE, **kwargs)
    if bad == "two-caches":
        # The log opens before the cache, and closes on the way out.
        assert len(handles) == 1 and handles[0].closed
    else:
        # Refused before any set-up: no log was opened or made.
        assert handles == [] and not log.exists()


# ----------------------------------------------------------------------
# CLI (batch_main)
# ----------------------------------------------------------------------
def test_cli_corpus_cold_then_warm_byte_identical(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    out_cold = str(tmp_path / "cold.json")
    out_warm = str(tmp_path / "warm.json")
    assert batch_main(
        ["--corpus", "4", "--cache-dir", cache, "--out", out_cold]
    ) == 0
    cold_text = capsys.readouterr().out
    assert "cache: 0 hits, 4 misses" in cold_text
    assert batch_main(
        ["--corpus", "4", "--cache-dir", cache, "--out", out_warm]
    ) == 0
    warm_text = capsys.readouterr().out
    assert "cache: 4 hits, 0 misses" in warm_text
    with open(out_cold, "rb") as a, open(out_warm, "rb") as b:
        assert a.read() == b.read()


def test_cli_missing_source_exits_2_one_line(tmp_path, capsys):
    missing = str(tmp_path / "nope.loop")
    assert batch_main([missing, "--no-cache"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and missing in err
    assert "\n" not in err


def test_cli_parse_error_exits_2_names_file(tmp_path, capsys):
    bad = tmp_path / "bad.loop"
    bad.write_text("this is not a loop\n")
    assert batch_main([str(bad), "--no-cache"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and str(bad) in err
    assert "\n" not in err


def test_cli_empty_directory_exits_2(tmp_path, capsys):
    empty = tmp_path / "loops"
    empty.mkdir()
    assert batch_main([str(empty), "--no-cache"]) == 2
    err = capsys.readouterr().err.strip()
    assert "no .loop files" in err


def test_cli_no_inputs_exits_2(capsys):
    assert batch_main(["--no-cache"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unknown_algorithm_exits_2(capsys):
    assert batch_main(["--corpus", "2", "--algorithm", "zigzag"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_cli_corpus_and_sources_conflict(tmp_path, capsys):
    src = tmp_path / "a.loop"
    src.write_text("loop a\n")
    assert batch_main(["--corpus", "2", str(src)]) == 2
    assert "not both" in capsys.readouterr().err


def test_cli_loop_files_and_directory(tmp_path, capsys):
    source = (
        "loop tiny\n"
        "array x 40\n"
        "array y 40\n"
        "do i = 2, 20\n"
        "    x(i) = x(i-1) + y(i-2)\n"
        "end do\n"
    )
    loops = tmp_path / "loops"
    loops.mkdir()
    (loops / "a.loop").write_text(source)
    (loops / "b.loop").write_text(source.replace("tiny", "tiny2"))
    (loops / "notes.txt").write_text("ignored")
    out = str(tmp_path / "m.json")
    assert batch_main([str(loops), "--no-cache", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "batch: 2 loops  ok=2" in text
    with open(out) as handle:
        records = json.load(handle)
    assert [record["name"] for record in records] == ["tiny", "tiny2"]


def test_cli_injected_crash_exits_1_batch_survives(tmp_path, capsys):
    code = batch_main(
        [
            "--corpus", "3",
            "--no-cache",
            "--jobs", "2",
            "--timeout", "20",
            "--inject", "1:raise",
        ]
    )
    assert code == 1
    text = capsys.readouterr().out
    assert "ok=2" in text and "failed=1" in text


def test_cli_out_unwritable_exits_2(tmp_path, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "m.json")
    assert batch_main(["--corpus", "2", "--no-cache", "--out", out]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_default_cache_dir_not_created_with_no_cache(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert batch_main(["--corpus", "2", "--no-cache"]) == 0
    assert not os.path.exists(".repro-cache")


# ----------------------------------------------------------------------
# Flight recorder: failure records carry their post-mortem
# ----------------------------------------------------------------------
def test_failed_job_flight_flows_through_run_batch():
    report = run_batch(paper_corpus(3), MACHINE, faults={1: "raise"})
    failed = report.results[1]
    assert failed.status == "failed"
    assert failed.flight and failed.flight[0]["kind"] == "job_start"
    assert all(r.flight is None for r in report.results if r.ok)
    assert "[flight recorder:" in report.summary()


def test_serial_batch_neither_spills_nor_takes_fatal_signals(monkeypatch):
    # A spill handler in the caller's own process would kill it, so a
    # serial batch gets no spill directory and no fatal-signal handler;
    # its ring still attaches to the failure record.
    import signal
    import tempfile

    from repro.service.pool import _FATAL_SIGNALS

    made, taken = [], []
    real_mkdtemp, real_signal = tempfile.mkdtemp, signal.signal

    def mkdtemp(*args, **kwargs):
        made.append(kwargs.get("prefix"))
        return real_mkdtemp(*args, **kwargs)

    def take(signum, handler):
        taken.append(signum)
        return real_signal(signum, handler)

    monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
    monkeypatch.setattr(signal, "signal", take)
    report = run_batch(paper_corpus(2), MACHINE, faults={1: "raise"})
    assert report.results[0].ok and report.results[1].flight
    assert "repro-flight-" not in made
    fatal = {getattr(signal, name) for name in _FATAL_SIGNALS if hasattr(signal, name)}
    assert not fatal & set(taken)


def test_flight_events_zero_disables_recording():
    report = run_batch(
        paper_corpus(2), MACHINE, faults={0: "raise"}, flight_events=0
    )
    assert report.results[0].status == "failed"
    assert report.results[0].flight is None
    assert "[flight recorder:" not in report.summary()


def test_progress_events_carry_the_flight_dump():
    from repro.obs import CollectingProgress

    sink = CollectingProgress()
    run_batch(paper_corpus(2), MACHINE, faults={0: "raise"}, progress=sink)
    failed = [e for e in sink.events if e.kind == "failed"]
    assert failed and failed[0].flight
    assert failed[0].flight[0]["kind"] == "job_start"
    # ...and the dump survives the JSONL round trip.
    from repro.obs.progress import event_from_dict

    clone = event_from_dict(failed[0].to_dict())
    assert clone.flight == failed[0].flight


def test_cli_explain_failures_renders_postmortem(capsys):
    code = batch_main(
        [
            "--corpus", "3",
            "--no-cache",
            "--inject", "1:raise",
            "--no-progress",
            "--explain-failures",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "flight recorder:" in err
    assert "=== post-mortem:" in err and "job_start" in err


def test_cli_no_flight_suppresses_dumps(capsys):
    code = batch_main(
        [
            "--corpus", "2",
            "--no-cache",
            "--inject", "0:raise",
            "--no-progress",
            "--flight-events", "0",
            "--explain-failures",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "flight recorder" not in err and "post-mortem" not in err


def test_cli_negative_flight_events_exits_2(capsys):
    assert batch_main(["--corpus", "2", "--flight-events", "-1"]) == 2
    assert "--flight-events" in capsys.readouterr().err


# ----------------------------------------------------------------------
# History recording (--history) and progress gating
# ----------------------------------------------------------------------
def test_cli_history_records_batch_summary(tmp_path, capsys):
    from repro.obs.history import HistoryStore

    db = str(tmp_path / "h.jsonl")
    assert batch_main(
        ["--corpus", "2", "--no-cache", "--no-progress", "--history", db]
    ) == 0
    assert f"history: run #1 -> {db}" in capsys.readouterr().out
    store = HistoryStore(db)
    runs = store.runs("batch-cli")
    assert len(runs) == 1
    metrics = runs[0].payload["metrics"]
    assert metrics["jobs"]["value"] == 2.0
    assert metrics["jobs_ok"]["value"] == 2.0
    assert "wall_s" in metrics


def test_cli_history_unwritable_exits_2(tmp_path, capsys):
    db = str(tmp_path / "no" / "such" / "dir" / "h.jsonl")
    assert batch_main(
        ["--corpus", "2", "--no-cache", "--no-progress", "--history", db]
    ) == 2
    assert "history" in capsys.readouterr().err


def test_cli_progress_hidden_when_stderr_not_a_tty(capsys):
    # capsys replaces stderr with a pipe, so the default (no flag) must
    # not draw the \r-overwrite status line.
    assert batch_main(["--corpus", "2", "--no-cache"]) == 0
    assert "\r" not in capsys.readouterr().err


def test_cli_progress_flag_forces_the_status_line(capsys):
    assert batch_main(["--corpus", "2", "--no-cache", "--progress"]) == 0
    err = capsys.readouterr().err
    assert "\r" in err and "batch 2/2" in err


def test_cli_no_progress_overrides_a_tty(capsys, monkeypatch):
    import sys as _sys

    monkeypatch.setattr(_sys.stderr, "isatty", lambda: True, raising=False)
    assert batch_main(["--corpus", "2", "--no-cache", "--no-progress"]) == 0
    assert "\r" not in capsys.readouterr().err
