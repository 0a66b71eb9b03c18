"""The one observation argument: Observer normalizes its two sinks."""

import pytest

from repro.obs import (
    NULL_METRICS,
    NULL_OBSERVER,
    CollectingTracer,
    FlightRecorder,
    MetricsRegistry,
    Observer,
)


def test_enabled_tracer_is_kept_as_given():
    recorder = FlightRecorder()
    assert Observer(recorder).trace is recorder


def test_default_profiler_is_the_null_profiler():
    """The shared disabled registry is the default span recorder."""
    assert Observer().metrics is NULL_METRICS
    assert Observer().trace is None


def test_default_observer_records_nothing():
    assert not NULL_OBSERVER.enabled
    assert not Observer(None, NULL_METRICS).enabled


@pytest.mark.parametrize(
    "sinks",
    [
        {"trace": CollectingTracer()},
        {"trace": FlightRecorder()},
        {"metrics": MetricsRegistry()},
    ],
    ids=["collecting-tracer", "flight-recorder", "metrics"],
)
def test_any_single_enabled_sink_enables_the_observer(sinks):
    assert Observer(**sinks).enabled
