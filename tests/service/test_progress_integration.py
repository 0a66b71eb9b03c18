"""Progress through the service: backend parity and CLI streams."""

import json
import sys

from repro.machine import cydra5
from repro.obs.progress import (
    KIND_CACHED,
    KIND_FINISHED,
    KIND_QUARANTINED,
    KIND_STARTED,
    KIND_SUBMITTED,
    CollectingProgress,
    lifecycle_sequence,
)
from repro.service.batch import run_batch
from repro.service.batch_cli import batch_main
from repro.workloads import paper_corpus

MACHINE = cydra5()
N = 6
BACKENDS = ("serial", "chunked")


def _events(backend, **kwargs):
    sink = CollectingProgress()
    report = run_batch(
        paper_corpus(N), MACHINE, backend=backend, jobs=2,
        progress=sink, **kwargs,
    )
    return report, sink.events


def test_every_backend_emits_identical_lifecycle_sequences():
    """The parity contract: serial and chunked runs differ only in
    timestamps and cross-job interleaving."""
    sequences = []
    for backend in BACKENDS:
        report, events = _events(backend)
        assert report.ok
        sequences.append(lifecycle_sequence(events))
    assert sequences[0] == sequences[1]
    assert sequences[0] == {
        index: [KIND_SUBMITTED, KIND_STARTED, KIND_FINISHED]
        for index in range(N)
    }


def test_submitted_events_arrive_in_index_order():
    _, events = _events("serial")
    submitted = [e.job for e in events if e.kind == KIND_SUBMITTED]
    assert submitted == list(range(N))
    # Timestamps never go backwards within the emission stream.
    timestamps = [e.ts for e in events]
    assert timestamps == sorted(timestamps)


def test_cache_hits_emit_cached_without_started(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_batch(paper_corpus(N), MACHINE, cache_dir=cache_dir)
    sink = CollectingProgress()
    report = run_batch(
        paper_corpus(N), MACHINE, cache_dir=cache_dir, progress=sink
    )
    assert report.cache.hits == N
    assert lifecycle_sequence(sink.events) == {
        index: [KIND_SUBMITTED, KIND_CACHED] for index in range(N)
    }


def test_crashed_job_emits_quarantined_then_terminal():
    report, events = _events("chunked", faults={2: "crash"}, max_retries=0)
    sequences = lifecycle_sequence(events)
    assert sequences[2][0] == KIND_SUBMITTED
    assert KIND_QUARANTINED in sequences[2]
    assert sequences[2][-1] == "failed"
    # Healthy jobs still complete; ones in flight when the pool broke may
    # legitimately pass through quarantine on their way to finishing.
    for index, sequence in sequences.items():
        if index == 2:
            continue
        assert sequence[0] == KIND_SUBMITTED
        assert sequence[-1] == KIND_FINISHED
    assert not report.ok


def test_progress_log_and_report_fields(tmp_path):
    log = str(tmp_path / "p.jsonl")
    report = run_batch(paper_corpus(4), MACHINE, progress_log=log)
    from repro.obs.progress import load_progress_log

    events = load_progress_log(log)
    assert len(events) == 3 * 4  # submitted + started + finished per job
    assert report.stragglers == []
    assert report.straggler_factor == 4.0
    assert "latency: p50=" in report.summary()


# ----------------------------------------------------------------------
# CLI stream routing
# ----------------------------------------------------------------------
def _write_loop(tmp_path):
    source = tmp_path / "a.loop"
    source.write_text(
        "loop tiny\n"
        "array x 64\n"
        "array y 64\n"
        "do i = 2, 9\n"
        "    x(i) = y(i) * (y(i) - x(i-1))\n"
        "end do\n"
    )
    return str(source)


def test_out_dash_keeps_stdout_machine_parseable(tmp_path, capsys, monkeypatch):
    """With --out -, stdout is exactly the JSON array; every status and
    diagnostic line goes to stderr."""
    monkeypatch.chdir(tmp_path)
    code = batch_main([_write_loop(tmp_path), "--no-cache", "--out", "-"])
    captured = capsys.readouterr()
    assert code == 0
    records = json.loads(captured.out)  # would raise if a status line leaked
    assert len(records) == 1
    assert "batch: 1 loops" in captured.err
    assert "pool:" in captured.err


def test_default_run_keeps_summary_on_stdout(tmp_path, capsys, monkeypatch):
    """Without --out -, the status block stays on stdout (CI greps it)
    while diagnostics like injected failures go to stderr."""
    monkeypatch.chdir(tmp_path)
    source = _write_loop(tmp_path)
    code = batch_main([source, source, "--no-cache", "--inject", "1:raise"])
    captured = capsys.readouterr()
    assert code == 1
    assert "batch: 2 loops" in captured.out
    assert "cache:" not in captured.out  # --no-cache: no cache line at all
    assert "FAILED" in captured.err
    assert "FAILED" not in captured.out


def test_straggler_warning_is_a_diagnostic():
    from repro.obs.progress import Straggler
    from repro.service.batch import BatchReport
    from repro.service.pool import PoolStats

    report = BatchReport(
        results=[],
        pool=PoolStats(workers=1, jobs=0),
        cache=None,
        wall_seconds=0.0,
        stragglers=[
            Straggler(job=1, loop="ll2", seconds=2.0, ratio=8.0, in_flight=False)
        ],
        straggler_factor=4.0,
    )
    _, diagnostics = report.summary_lines()
    assert any("stragglers: 1 job(s) exceeded 4x" in line for line in diagnostics)
