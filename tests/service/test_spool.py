"""Cross-process observability: spool files, merge determinism, gap reporting."""

import json
import logging
import os

import pytest

from repro.machine import cydra5
from repro.obs import (
    NULL_PROFILER,
    NULL_TRACER,
    MetricsRegistry,
    Observer,
    Profiler,
)
from repro.obs.trace import CollectingTracer
from repro.service.backends import ChunkedProcessBackend
from repro.service.batch import run_batch
from repro.service.jobs import JobResult
from repro.service.spool import (
    SpoolError,
    merge_spools,
    read_spool,
    record_spool_stats,
    spool_path,
    write_spool,
)
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
        programs, MACHINE, backend=ChunkedProcessBackend(3, 2),
        observer=Observer(CollectingTracer()),
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
    assert report.spool.merged == 3
    assert len(tracer.events) == report.spool.events > 0


def test_worker_metrics_and_profile_cross_process_boundary():
    """Pre-refactor, jobs>1 silently dropped phase timers and spans."""
    registry = MetricsRegistry()
    profiler = Profiler()
    run_batch(
        paper_corpus(3), MACHINE, jobs=2, backend="chunked",
        observer=Observer(CollectingTracer(), registry, profiler),
    )
    snapshot = registry.snapshot()
    assert snapshot["timers"]["phase.recmii"]["count"] == 3
    assert snapshot["counters"]["service.trace_spool.merged"] == 3
    assert snapshot["counters"]["service.trace_spool.missing"] == 0
    assert profiler.snapshot()["spans"]


@pytest.mark.parametrize(
    "observer",
    [None, Observer(), Observer(NULL_TRACER), Observer(prof=NULL_PROFILER)],
    ids=["none", "default", "null-tracer", "null-profiler"],
)
def test_no_observers_means_no_spool_overhead(observer):
    report = run_batch(paper_corpus(2), MACHINE, jobs=2, observer=observer)
    assert report.spool is None and report.trace_records is None


# ----------------------------------------------------------------------
# Spool file round-trip and gap reporting
# ----------------------------------------------------------------------
def _ok_result(index):
    return JobResult(index=index, name=f"loop{index}", status="ok")


def test_spool_roundtrip(tmp_path):
    from repro.obs.trace import Place

    tracer = CollectingTracer()
    tracer.emit(Place(oid=1, cycle=4))
    registry = MetricsRegistry()
    registry.counter("x").inc(2)
    assert write_spool(
        str(tmp_path), 7, "loop7", tracer.events, registry.dump(),
        Profiler().snapshot(),
    )
    record = read_spool(str(tmp_path), 7)
    assert record.job == 7 and record.loop == "loop7"
    assert [e.kind for e in record.events] == ["place"]
    assert record.metrics_dump["counters"]["x"] == 2
    assert record.profile_snapshot is not None


def test_missing_spool_is_counted_and_logged(tmp_path, caplog):
    results = [_ok_result(0), _ok_result(1)]
    write_spool(str(tmp_path), 0, "loop0", [], None, None)
    records, stats = merge_spools(str(tmp_path), results)
    assert stats.merged == 1 and stats.missing == 1 and stats.degraded
    registry = MetricsRegistry()
    with caplog.at_level(logging.WARNING, logger="repro.service"):
        record_spool_stats(registry, stats)
    assert "trace spool gap" in caplog.text
    snapshot = registry.snapshot()
    assert snapshot["counters"]["service.trace_spool.missing"] == 1
    assert snapshot["counters"]["service.trace_spool.merged"] == 1


def test_corrupt_spool_is_counted_not_raised(tmp_path):
    write_spool(str(tmp_path), 0, "loop0", [], None, None)
    with open(spool_path(str(tmp_path), 1), "w") as handle:
        handle.write("{not json\n")
    records, stats = merge_spools(str(tmp_path), [_ok_result(0), _ok_result(1)])
    assert stats.merged == 1 and stats.corrupt == 1 and stats.degraded


def test_truncated_and_bad_header_spools_raise_spool_error(tmp_path):
    with open(spool_path(str(tmp_path), 0), "w") as handle:
        handle.write(json.dumps({"type": "spool", "schema": "other"}) + "\n")
    with pytest.raises(SpoolError, match="bad spool header"):
        read_spool(str(tmp_path), 0)
    with open(spool_path(str(tmp_path), 1), "w") as handle:
        handle.write("")
    with pytest.raises(SpoolError, match="empty"):
        read_spool(str(tmp_path), 1)


def test_cached_jobs_are_skipped_by_merge(tmp_path):
    results = [JobResult(index=0, name="loop0", status="cached")]
    records, stats = merge_spools(str(tmp_path), results)
    assert records == [] and stats.merged == 0 and not stats.degraded


def test_cli_trace_flag_writes_merged_jsonl(tmp_path, capsys):
    from repro.service.batch import batch_main

    trace_path = str(tmp_path / "trace.jsonl")
    assert batch_main(
        ["--corpus", "3", "--no-cache", "--jobs", "2", "--trace", trace_path]
    ) == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "3 jobs" in out
    with open(trace_path) as handle:
        events = [json.loads(line) for line in handle]
    assert events and {"kind", "seq", "loop", "job"} <= set(events[0])
