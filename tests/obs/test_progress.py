"""Progress events, sinks, the straggler watchdog, and the tracker."""

import io
import json

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import (
    KIND_FINISHED,
    KIND_STARTED,
    KIND_STRAGGLER,
    KIND_SUBMITTED,
    CollectingProgress,
    JSONLProgress,
    ProgressEvent,
    ProgressTracker,
    StragglerWatchdog,
    TTYProgress,
    event_from_dict,
    job_event,
    lifecycle_sequence,
    load_progress_log,
)


def _event(kind, job=0, ts=0.0, seconds=None, loop="ll"):
    return ProgressEvent(kind=kind, job=job, loop=loop, ts=ts, seconds=seconds)


def test_event_roundtrip_through_dict():
    event = ProgressEvent(
        kind=KIND_FINISHED, job=3, loop="ll3", ts=12.5, status="ok", seconds=0.25
    )
    decoded = event_from_dict(event.to_dict())
    assert decoded == event


def test_event_from_dict_rejects_junk():
    with pytest.raises(ValueError):
        event_from_dict({"schema": "something.else"})
    with pytest.raises(ValueError):
        event_from_dict(
            {"schema": "repro.progress", "kind": "exploded", "job": 0}
        )


def test_jsonl_sink_and_loader_roundtrip(tmp_path):
    path = str(tmp_path / "p.jsonl")
    sink = JSONLProgress(path)
    events = [
        job_event(KIND_SUBMITTED, 0, "a"),
        job_event(KIND_STARTED, 0, "a"),
        job_event(KIND_FINISHED, 0, "a", status="ok", seconds=0.1),
    ]
    for event in events:
        sink.emit(event)
    sink.close()
    loaded = load_progress_log(path)
    assert [e.kind for e in loaded] == [e.kind for e in events]
    # Every line is schema-stamped JSON.
    with open(path) as handle:
        for line in handle:
            record = json.loads(line)
            assert record["schema"] == "repro.progress"
            assert record["v"] == 1


def test_tty_progress_renders_counts_and_final_newline():
    stream = io.StringIO()
    clock_value = [0.0]
    tty = TTYProgress(
        total=2, stream=stream, interval=0.0, clock=lambda: clock_value[0]
    )
    tty.emit(_event(KIND_STARTED, job=0))
    clock_value[0] = 1.0
    tty.emit(_event(KIND_FINISHED, job=0, seconds=0.5))
    tty.emit(_event(KIND_STRAGGLER, job=0, seconds=0.5))
    tty.close()
    output = stream.getvalue()
    assert "batch 1/2" in output
    assert "finished=1" in output
    assert "stragglers=1" in output
    assert output.endswith("\n")


def test_tty_progress_quiet_when_nothing_happened():
    stream = io.StringIO()
    TTYProgress(total=5, stream=stream).close()
    assert stream.getvalue() == ""


def test_watchdog_needs_min_samples():
    watchdog = StragglerWatchdog(factor=2.0, min_samples=3, min_seconds=0.0)
    watchdog.observe(1.0)
    watchdog.observe(1.0)
    assert watchdog.threshold() is None
    watchdog.observe(1.0)
    assert watchdog.threshold() == pytest.approx(2.0)
    assert watchdog.ratio(1.5) is None
    assert watchdog.ratio(5.0) == pytest.approx(5.0)


def test_watchdog_min_seconds_floor_suppresses_micro_jobs():
    watchdog = StragglerWatchdog(factor=4.0, min_samples=1, min_seconds=0.05)
    for _ in range(5):
        watchdog.observe(0.001)
    # 4x the median would be 4ms, but the floor keeps 10ms jobs unflagged.
    assert watchdog.ratio(0.01) is None
    assert watchdog.ratio(0.10) is not None


def test_watchdog_rejects_trivial_factor():
    with pytest.raises(ValueError):
        StragglerWatchdog(factor=1.0)


def test_tracker_flags_slow_terminal_job_once():
    sink = CollectingProgress()
    metrics = MetricsRegistry()
    tracker = ProgressTracker(
        total=8,
        sinks=[sink],
        metrics=metrics,
        watchdog=StragglerWatchdog(factor=2.0, min_samples=3, min_seconds=0.0),
    )
    ts = 0.0
    for job in range(3):
        tracker.emit(_event(KIND_FINISHED, job=job, ts=ts, seconds=1.0))
    tracker.emit(_event(KIND_FINISHED, job=3, ts=ts, seconds=9.0))
    tracker.emit(_event(KIND_FINISHED, job=3, ts=ts, seconds=9.0))  # dup
    flagged = [e for e in sink.events if e.kind == KIND_STRAGGLER]
    assert len(flagged) == 1
    assert flagged[0].job == 3
    assert flagged[0].ratio == pytest.approx(9.0)
    assert len(tracker.stragglers) == 1
    assert not tracker.stragglers[0].in_flight
    assert metrics.counter("service.stragglers.flagged").value == 1
    assert metrics.gauge("service.stragglers.worst_ratio").value > 1.0


def test_tracker_flags_job_still_in_flight():
    sink = CollectingProgress()
    tracker = ProgressTracker(
        total=8,
        sinks=[sink],
        watchdog=StragglerWatchdog(factor=2.0, min_samples=3, min_seconds=0.0),
    )
    tracker.emit(_event(KIND_STARTED, job=7, ts=0.0))
    for job in range(3):
        tracker.emit(_event(KIND_FINISHED, job=job, ts=1.0, seconds=1.0))
    # Job 7 has been running for 10s against a 2s threshold.
    tracker.emit(_event(KIND_FINISHED, job=4, ts=10.0, seconds=1.0))
    flagged = [e for e in sink.events if e.kind == KIND_STRAGGLER]
    assert [e.job for e in flagged] == [7]
    assert tracker.stragglers[0].in_flight


def test_tracker_records_progress_counters_on_close():
    metrics = MetricsRegistry()
    tracker = ProgressTracker(total=2, metrics=metrics)
    tracker.emit(_event(KIND_SUBMITTED, job=0))
    tracker.emit(_event(KIND_SUBMITTED, job=1))
    tracker.emit(_event(KIND_STARTED, job=0))
    tracker.emit(_event(KIND_FINISHED, job=0, seconds=0.1))
    tracker.close()
    counters = metrics.snapshot()["counters"]
    assert counters["service.progress.submitted"] == 2
    assert counters["service.progress.started"] == 1
    assert counters["service.progress.finished"] == 1


def test_lifecycle_sequence_drops_synthetic_kinds():
    events = [
        _event(KIND_SUBMITTED, job=0),
        _event(KIND_STARTED, job=0),
        _event(KIND_STRAGGLER, job=0),
        _event(KIND_FINISHED, job=0, seconds=1.0),
    ]
    assert lifecycle_sequence(events) == {
        0: [KIND_SUBMITTED, KIND_STARTED, KIND_FINISHED]
    }
