"""Metrics registry: instruments, snapshots, and scheduler wiring."""

import pytest

from repro.core import modulo_schedule
from repro.obs import MetricsRegistry, Observer, record_mrt_occupancy
from repro.obs.metrics import Counter, Gauge, Histogram, Timer

from tests.conftest import build_divider_loop, build_figure1_loop


def test_counter_and_gauge():
    counter, gauge = Counter(), Gauge()
    counter.inc()
    counter.inc(4)
    gauge.set(2.5)
    assert counter.value == 5
    assert gauge.value == 2.5


def test_timer_accumulates_sections():
    timer = Timer()
    timer.add(0.5)
    timer.add(0.25)
    assert timer.count == 2
    assert timer.seconds == 0.75


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
    assert metrics.timer("t") is metrics.timer("t")
    assert metrics.histogram("h") is metrics.histogram("h")
    assert metrics.gauge("g") is metrics.gauge("g")


def test_snapshot_is_json_safe():
    import json

    metrics = MetricsRegistry()
    metrics.counter("runs").inc()
    metrics.gauge("load").set(0.5)
    metrics.timer("phase").add(0.1)
    metrics.histogram("sizes").record(3)
    snapshot = metrics.snapshot()
    json.dumps(snapshot)
    assert snapshot["counters"]["runs"] == 1
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
    assert snapshot["timers"]["phase.scheduling"]["count"] == result.stats.attempts
    scans = snapshot["histograms"]["scheduler.scan_window_length"]
    assert scans["count"] > 0 and scans["min"] >= 1
    # MRT occupancy gauges exist for every unit instance and are in [0,1].
    occupancies = {
        name: value
        for name, value in snapshot["gauges"].items()
        if name.startswith("mrt.occupancy.")
    }
    assert len(occupancies) == sum(u.count for u in machine.unit_classes)
    assert all(0.0 <= value <= 1.0 for value in occupancies.values())


def test_record_mrt_occupancy_matches_resource_table(machine):
    result = modulo_schedule(build_figure1_loop(), machine)
    metrics = MetricsRegistry()
    record_mrt_occupancy(metrics, result.schedule)
    # figure1 saturates the single Adder at II=2 (two addf per iteration).
    assert metrics.gauge("mrt.occupancy.Adder[0]").value == 1.0
    record_mrt_occupancy(None, result.schedule)  # no-op without a registry
