"""Metrics registry: instruments, snapshots, and scheduler wiring."""

import pytest

from repro.core import modulo_schedule
from repro.obs import NULL_METRICS, MetricsRegistry, Observer, record_mrt_occupancy
from repro.obs.metrics import Counter, Gauge, Histogram
from repro.service import run_batch
from repro.workloads import paper_corpus

from tests.conftest import build_divider_loop, build_figure1_loop


def test_counter_and_gauge():
    counter, gauge = Counter(), Gauge()
    counter.inc()
    counter.inc(4)
    gauge.set(2.5)
    assert counter.value == 5
    assert gauge.value == 2.5


def test_histogram_summary():
    histogram = Histogram()
    for value in [1, 2, 3, 4, 100]:
        histogram.record(value)
    summary = histogram.summary()
    assert summary["count"] == 5
    assert summary["min"] == 1 and summary["max"] == 100
    assert summary["p50"] == 3
    assert summary["mean"] == pytest.approx(22.0)


def test_empty_histogram_summary():
    assert Histogram().summary()["count"] == 0
    assert Histogram().percentile(0.9) == 0.0


def test_registry_reuses_instruments():
    metrics = MetricsRegistry()
    assert metrics.counter("a") is metrics.counter("a")
    assert metrics.histogram("h") is metrics.histogram("h")
    assert metrics.gauge("g") is metrics.gauge("g")


def test_snapshot_is_json_safe():
    import json

    metrics = MetricsRegistry()
    metrics.counter("runs").inc()
    metrics.gauge("load").set(0.5)
    with metrics.span("phase"):
        pass
    metrics.histogram("sizes").record(3)
    snapshot = metrics.snapshot()
    json.dumps(snapshot)
    assert snapshot["counters"]["runs"] == 1
    assert snapshot["spans"]["phase"]["calls"] == 1
    assert snapshot["histograms"]["sizes"]["count"] == 1


def test_render_lists_every_instrument():
    metrics = MetricsRegistry()
    metrics.counter("runs").inc(3)
    metrics.histogram("sizes").record(7)
    text = metrics.render()
    assert "runs" in text and "sizes" in text
    assert MetricsRegistry().render().endswith("(no instruments recorded)")


def test_scheduler_populates_registry(machine):
    metrics = MetricsRegistry()
    result = modulo_schedule(
        build_divider_loop(), machine, observer=Observer(metrics=metrics)
    )
    assert result.success
    snapshot = metrics.snapshot()
    assert snapshot["counters"]["scheduler.attempts"] == result.stats.attempts
    place = snapshot["spans"]["driver.attempt;driver.place"]
    assert place["calls"] == result.stats.attempts
    assert place["cum_seconds"] == result.stats.scheduling_seconds
    scans = snapshot["histograms"]["scheduler.scan_window_length"]
    assert scans["count"] > 0 and scans["min"] >= 1
    # One occupancy value per unit instance for the one loop, in [0, 1].
    occupancies = {
        name: values
        for name, values in metrics.dump()["histogram_values"].items()
        if name.startswith("mrt.occupancy.")
    }
    assert len(occupancies) == sum(u.count for u in machine.unit_classes)
    assert all(
        len(values) == 1 and 0.0 <= values[0] <= 1.0
        for values in occupancies.values()
    )


def test_record_mrt_occupancy_matches_resource_table(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    metrics = MetricsRegistry()
    record_mrt_occupancy(metrics, result.schedule)
    # figure1 saturates the single Adder at II=2 (two addf per iteration).
    assert metrics.histogram("mrt.occupancy.Adder[0]").values == [1.0]
    record_mrt_occupancy(NULL_METRICS, result.schedule)  # keeps nothing
    assert NULL_METRICS.snapshot()["histograms"] == {}


@pytest.mark.parametrize("jobs", [1, 2])
def test_merged_batch_occupancy_holds_one_value_per_loop(jobs):
    """A batch's registry describes every loop, not the last one merged."""
    programs = paper_corpus(3, 1993)
    metrics = MetricsRegistry()
    report = run_batch(programs, jobs=jobs, observer=Observer(metrics=metrics))
    assert report.ok
    values = metrics.dump()["histogram_values"]["mrt.occupancy.Adder[0]"]
    singles = []
    for program in programs:
        one = MetricsRegistry()
        run_batch([program], observer=Observer(metrics=one))
        singles += one.histogram("mrt.occupancy.Adder[0]").values
    assert len(values) == len(programs) == 3
    assert values == singles
