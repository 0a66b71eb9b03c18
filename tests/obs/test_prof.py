"""Profiler spans: nesting, self vs cumulative time, counters, memory."""

import json
import time

import pytest

from repro.core import ALGORITHMS, modulo_schedule
from repro.obs import NULL_PROFILER, NullProfiler, Observer, Profiler
from repro.obs.prof import PATH_SEP


class FakeClock:
    """Deterministic clock: advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


def test_nested_spans_accumulate_self_and_cumulative_time():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    with prof.span("outer"):
        clock.tick(1.0)
        with prof.span("inner"):
            clock.tick(2.0)
        clock.tick(0.5)
    snap = prof.snapshot()
    outer = snap["spans"]["outer"]
    inner = snap["spans"][f"outer{PATH_SEP}inner"]
    assert outer["calls"] == 1 and inner["calls"] == 1
    assert outer["cum_seconds"] == 3.5
    assert outer["self_seconds"] == 1.5  # 3.5 total minus the 2.0 child
    assert inner["cum_seconds"] == inner["self_seconds"] == 2.0


def test_same_name_different_parents_get_distinct_paths():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    for parent in ("a", "b"):
        with prof.span(parent):
            with prof.span("work"):
                clock.tick(1.0)
    spans = prof.snapshot()["spans"]
    assert f"a{PATH_SEP}work" in spans and f"b{PATH_SEP}work" in spans


def test_repeated_spans_count_calls():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    for _ in range(5):
        with prof.span("step"):
            clock.tick(0.1)
    stat = prof.snapshot()["spans"]["step"]
    assert stat["calls"] == 5
    assert abs(stat["cum_seconds"] - 0.5) < 1e-9


def test_counters_accumulate():
    prof = Profiler()
    prof.count("placements")
    prof.count("placements", 4)
    prof.count("scans", 10)
    counters = prof.snapshot()["counters"]
    assert counters == {"placements": 5, "scans": 10}


def test_snapshot_is_json_safe_and_report_renders():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    with prof.span("phase"):
        clock.tick(1.0)
    prof.count("things", 3)
    json.dumps(prof.snapshot())  # must not raise
    report = prof.report()
    assert "phase" in report and "things" in report and "calls" in report


def test_merge_folds_spans_and_counters():
    clock = FakeClock()
    a, b = Profiler(clock=clock), Profiler(clock=clock)
    with a.span("s"):
        clock.tick(1.0)
    with b.span("s"):
        clock.tick(2.0)
    b.count("c", 7)
    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["spans"]["s"]["calls"] == 2
    assert snap["spans"]["s"]["cum_seconds"] == 3.0
    assert snap["counters"]["c"] == 7


def test_null_profiler_is_disabled_and_normalized_away():
    assert NULL_PROFILER.enabled is False
    assert isinstance(NULL_PROFILER, NullProfiler)
    # A null span still times itself; nothing is recorded.
    with NULL_PROFILER.span("outer") as outer:
        with NULL_PROFILER.span("inner"):
            time.sleep(0.01)
        NULL_PROFILER.count("things", 3)
    assert outer.seconds >= 0.01
    snap = NULL_PROFILER.snapshot()
    assert snap["spans"] == {} and snap["counters"] == {}


def test_exception_inside_span_still_closes_it():
    clock = FakeClock()
    prof = Profiler(clock=clock)
    try:
        with prof.span("risky"):
            clock.tick(1.0)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    stat = prof.snapshot()["spans"]["risky"]
    assert stat["calls"] == 1 and stat["cum_seconds"] == 1.0


def test_scheduler_run_produces_expected_spans(figure1_loop, machine):
    from repro.core import modulo_schedule

    prof = Profiler()
    result = modulo_schedule(figure1_loop, machine, observer=Observer(prof=prof))
    assert result.success
    snap = prof.snapshot()
    paths = set(snap["spans"])
    assert "bounds.resmii" in paths and "bounds.recmii" in paths
    assert "driver.attempt" in paths
    assert any(p.endswith("bounds.mindist") for p in paths)
    assert snap["counters"]["framework.placements"] >= len(figure1_loop.real_ops)
    assert snap["counters"]["driver.attempts"] == result.stats.attempts


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_times_setup_place_and_mindist_in_spans(
    algorithm, figure1_loop, machine
):
    prof = Profiler()
    result = modulo_schedule(
        figure1_loop, machine, algorithm=algorithm, observer=Observer(prof=prof)
    )
    spans = prof.snapshot()["spans"]
    setup = f"driver.attempt{PATH_SEP}driver.setup"
    place = f"driver.attempt{PATH_SEP}driver.place"
    for path in (setup, place, f"{setup}{PATH_SEP}bounds.mindist"):
        assert spans[path]["calls"] == result.stats.attempts, path
