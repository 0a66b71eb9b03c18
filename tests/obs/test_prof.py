"""The registry's span profile: nesting, self vs cumulative time,
counters, merging, and the shared disabled registry."""

import json
import time

import pytest

from repro.core import ALGORITHMS, modulo_schedule
from repro.obs import NULL_METRICS, MetricsRegistry, Observer
from repro.obs.metrics import PATH_SEP


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
    metrics = MetricsRegistry(clock=clock)
    with metrics.span("outer"):
        clock.tick(1.0)
        with metrics.span("inner"):
            clock.tick(2.0)
        clock.tick(0.5)
    snap = metrics.snapshot()
    outer = snap["spans"]["outer"]
    inner = snap["spans"][f"outer{PATH_SEP}inner"]
    assert outer["calls"] == 1 and inner["calls"] == 1
    assert outer["cum_seconds"] == 3.5
    assert outer["self_seconds"] == 1.5  # 3.5 total minus the 2.0 child
    assert inner["cum_seconds"] == inner["self_seconds"] == 2.0


def test_same_name_different_parents_get_distinct_paths():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    for parent in ("a", "b"):
        with metrics.span(parent):
            with metrics.span("work"):
                clock.tick(1.0)
    spans = metrics.snapshot()["spans"]
    assert f"a{PATH_SEP}work" in spans and f"b{PATH_SEP}work" in spans


def test_repeated_spans_count_calls():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    for _ in range(5):
        with metrics.span("step"):
            clock.tick(0.1)
    stat = metrics.snapshot()["spans"]["step"]
    assert stat["calls"] == 5
    assert abs(stat["cum_seconds"] - 0.5) < 1e-9


def test_counters_accumulate():
    metrics = MetricsRegistry()
    metrics.counter("placements").inc()
    metrics.counter("placements").inc(4)
    metrics.counter("scans").inc(10)
    counters = metrics.snapshot()["counters"]
    assert counters == {"placements": 5, "scans": 10}


def test_snapshot_is_json_safe_and_report_renders():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    with metrics.span("phase"):
        clock.tick(1.0)
    metrics.counter("things").inc(3)
    json.dumps(metrics.snapshot())  # must not raise
    report = metrics.report()
    assert "phase" in report and "calls" in report and "1000.00" in report
    # Wall time goes to the span table only: the instrument block a run
    # prints (--explain) names the counter and no span.
    render = metrics.render()
    assert "things" in render and "phase" not in render


def test_merge_folds_spans_and_counters():
    clock = FakeClock()
    a, b = MetricsRegistry(clock=clock), MetricsRegistry(clock=clock)
    with a.span("s"):
        clock.tick(1.0)
    with b.span("s"):
        clock.tick(2.0)
    b.counter("c").inc(7)
    a.merge_dump(b.dump())
    snap = a.snapshot()
    assert snap["spans"]["s"]["calls"] == 2
    assert snap["spans"]["s"]["cum_seconds"] == 3.0
    assert snap["counters"]["c"] == 7


def test_null_profiler_is_disabled_and_normalized_away():
    """The shared disabled registry: spans time themselves, nothing is
    kept, and it is every observer's default."""
    assert NULL_METRICS.enabled is False
    assert Observer().metrics is NULL_METRICS
    assert Observer(metrics=None).metrics is NULL_METRICS
    with NULL_METRICS.span("outer") as outer:
        with NULL_METRICS.span("inner"):
            time.sleep(0.01)
        NULL_METRICS.counter("things").inc(3)
        NULL_METRICS.histogram("sizes").record(1)
    assert outer.seconds >= 0.01
    snap = NULL_METRICS.snapshot()
    assert snap["spans"] == {} and snap["counters"] == {}
    assert snap["histograms"] == {}


def test_exception_inside_span_still_closes_it():
    clock = FakeClock()
    metrics = MetricsRegistry(clock=clock)
    try:
        with metrics.span("risky"):
            clock.tick(1.0)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    stat = metrics.snapshot()["spans"]["risky"]
    assert stat["calls"] == 1 and stat["cum_seconds"] == 1.0


def test_scheduler_run_produces_expected_spans(figure1_loop, machine):
    from repro.core import modulo_schedule

    metrics = MetricsRegistry()
    result = modulo_schedule(figure1_loop, machine, observer=Observer(metrics=metrics))
    assert result.success
    snap = metrics.snapshot()
    paths = set(snap["spans"])
    assert "bounds.resmii" in paths and "bounds.recmii" in paths
    assert snap["spans"]["driver.attempt"]["calls"] == result.stats.attempts
    assert any(p.endswith("bounds.mindist") for p in paths)
    counters = snap["counters"]
    assert counters["scheduler.placements"] == result.stats.placements
    assert counters["scheduler.placements"] >= len(figure1_loop.real_ops)
    assert counters["scheduler.attempts"] == result.stats.attempts


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_every_algorithm_times_setup_place_and_mindist_in_spans(
    algorithm, figure1_loop, machine
):
    metrics = MetricsRegistry()
    result = modulo_schedule(
        figure1_loop, machine, algorithm=algorithm, observer=Observer(metrics=metrics)
    )
    spans = metrics.snapshot()["spans"]
    setup = f"driver.attempt{PATH_SEP}driver.setup"
    place = f"driver.attempt{PATH_SEP}driver.place"
    for path in (setup, place, f"{setup}{PATH_SEP}bounds.mindist"):
        assert spans[path]["calls"] == result.stats.attempts, path
