"""Cross-process observability: each job's observations return in its
``JobResult`` and merge into the batch's observer in submission order."""

import json

import pytest

from repro.machine import cydra5
from repro.obs import (
    NULL_PROFILER,
    NULL_TRACER,
    MetricsRegistry,
    Observer,
    Profiler,
)
from repro.obs.trace import CollectingTracer, Tracer
from repro.service.batch import run_batch
from repro.service.jobs import JOB_CACHED, JOB_FAILED
from repro.workloads import paper_corpus

MACHINE = cydra5()


def _records_without_ts(records):
    return [{k: v for k, v in r.items() if k != "ts"} for r in records]


# ----------------------------------------------------------------------
# Parity: the merged stream is independent of the job count
# ----------------------------------------------------------------------
def test_trace_parity_serial_vs_chunked():
    programs = paper_corpus(5)
    serial = run_batch(
        programs, MACHINE, jobs=1, observer=Observer(CollectingTracer())
    )
    chunked = run_batch(
        programs, MACHINE, jobs=3, observer=Observer(CollectingTracer()),
    )
    assert serial.trace_records and chunked.trace_records
    assert _records_without_ts(serial.trace_records) == _records_without_ts(
        chunked.trace_records
    )
    # Every record is tagged with its loop and job index, job-local seq.
    first = chunked.trace_records[0]
    assert first["job"] == 0 and first["seq"] == 0 and first["loop"]


def test_session_tracer_receives_merged_events_across_processes():
    tracer = CollectingTracer()
    report = run_batch(
        paper_corpus(3), MACHINE, jobs=2, backend="chunked",
        observer=Observer(tracer),
    )
    assert report.observed_jobs == len(report.results) == 3
    assert len(tracer.events) == len(report.trace_records) > 0
    assert [record["job"] for record in report.trace_records] == sorted(
        record["job"] for record in report.trace_records
    )


def test_worker_metrics_and_profile_cross_process_boundary():
    """Pre-refactor, jobs>1 silently dropped phase timers and spans."""
    registry = MetricsRegistry()
    profiler = Profiler()
    report = run_batch(
        paper_corpus(3), MACHINE, jobs=2, backend="chunked",
        observer=Observer(CollectingTracer(), registry, profiler),
    )
    snapshot = registry.snapshot()
    assert snapshot["timers"]["phase.recmii"]["count"] == 3
    assert snapshot["counters"]["scheduler.attempts"] == sum(
        metrics.attempts for metrics in report.loop_metrics
    )
    assert profiler.snapshot()["spans"]


@pytest.mark.parametrize(
    "observer",
    [None, Observer(), Observer(NULL_TRACER), Observer(prof=NULL_PROFILER)],
    ids=["none", "default", "null-tracer", "null-profiler"],
)
def test_no_observers_means_no_spool_overhead(observer):
    report = run_batch(paper_corpus(2), MACHINE, jobs=2, observer=observer)
    assert report.trace_records is None
    assert all(result.observed is None for result in report.results)


# ----------------------------------------------------------------------
# The results are the only channel: no spill files, partial jobs merge
# ----------------------------------------------------------------------
def test_observed_batch_makes_only_the_pools_spill_directory(made_dirs):
    programs = paper_corpus(3)
    observer = Observer(CollectingTracer(), MetricsRegistry(), Profiler())
    run_batch(programs, MACHINE, jobs=1, observer=observer)
    assert made_dirs == []
    run_batch(programs, MACHINE, jobs=2, observer=observer)
    assert made_dirs == ["repro-flight-"]


def test_job_that_raises_mid_schedule_still_merges_its_partial_observations(
    monkeypatch,
):
    emit = CollectingTracer.emit
    raised = []

    def _fail_on_first_place(self, event):
        if event.kind == "place" and not raised:
            raised.append(event)
            raise RuntimeError("tracer failed")
        emit(self, event)

    monkeypatch.setattr(CollectingTracer, "emit", _fail_on_first_place)
    registry = MetricsRegistry()
    profiler = Profiler()
    report = run_batch(
        paper_corpus(1), MACHINE, observer=Observer(metrics=registry, prof=profiler)
    )
    [result] = report.results
    assert result.status == JOB_FAILED and "tracer failed" in result.error
    kinds = [record["kind"] for record in report.trace_records]
    assert kinds[0] == "attempt_start" and "place" not in kinds
    assert {record["job"] for record in report.trace_records} == {0}
    snapshot = registry.snapshot()
    assert snapshot["timers"]["phase.recmii"]["count"] == 1
    assert snapshot["counters"]["service.jobs.failed"] == 1
    # The placement span the failure escaped from is merged too.
    assert "driver.attempt;driver.place" in profiler.snapshot()["spans"]


def test_cached_jobs_are_skipped_by_merge(tmp_path, made_dirs):
    cache_dir = str(tmp_path / "cache")
    programs = paper_corpus(3)
    run_batch(programs[:2], MACHINE, cache_dir=cache_dir)
    tracer = CollectingTracer()
    report = run_batch(
        programs, MACHINE, jobs=2, cache_dir=cache_dir, observer=Observer(tracer)
    )
    assert [result.status for result in report.results[:2]] == [JOB_CACHED] * 2
    assert {record["job"] for record in report.trace_records} == {2}
    assert len(tracer.events) == len(report.trace_records)
    warm = run_batch(
        programs, MACHINE, jobs=2, cache_dir=cache_dir,
        observer=Observer(CollectingTracer()),
    )
    assert warm.trace_records == []
    # Only the run that computed a job started a pool.
    assert made_dirs == ["repro-flight-"]


def test_cli_trace_flag_writes_merged_jsonl(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    trace_path = str(tmp_path / "trace.jsonl")
    assert batch_main(
        ["--corpus", "3", "--no-cache", "--jobs", "2", "--trace", trace_path]
    ) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "3 jobs" in out
    with open(trace_path) as handle:
        events = [json.loads(line) for line in handle]
    assert events and {"kind", "seq", "loop", "job"} <= set(events[0])


@pytest.mark.parametrize("jobs", [1, 2])
def test_report_holds_each_event_once(jobs):
    """Once folded into the observer, a job's observations leave its
    result: the report keeps each event only as its loop-tagged record."""
    report = run_batch(paper_corpus(3), MACHINE, jobs=jobs, observer=Observer(Tracer()))
    assert report.trace_records and report.observed_jobs == 3
    assert all(result.observed is None for result in report.results)


def test_cli_trace_keeps_one_copy_of_each_event(tmp_path, capsys, monkeypatch):
    """The file is written from the loop-tagged records alone: the CLI's
    tracer keeps no second copy, no result keeps its events, and no
    event is re-stamped."""
    from repro.service import batch_cli

    seen = {}

    def _run_batch(*args, **kwargs):
        seen["observer"] = kwargs["observer"]
        seen["report"] = run_batch(*args, **kwargs)
        return seen["report"]

    monkeypatch.setattr(batch_cli, "run_batch", _run_batch)
    trace_path = tmp_path / "trace.jsonl"
    assert batch_cli.batch_main(
        ["--corpus", "3", "--no-cache", "--no-progress", "--trace", str(trace_path)]
    ) == 0
    assert f"trace: {len(seen['report'].trace_records)} events (3 jobs)" in (
        capsys.readouterr().out
    )
    assert not hasattr(seen["observer"].trace, "events")
    assert all(result.observed is None for result in seen["report"].results)
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert records == seen["report"].trace_records and records
    # Job-local seq: each job's records count from 0, as its tracer did.
    for job in range(3):
        seqs = [record["seq"] for record in records if record["job"] == job]
        assert seqs == list(range(len(seqs))) and seqs
