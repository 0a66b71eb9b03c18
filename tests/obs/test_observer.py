"""The one observation argument: Observer normalizes its three sinks."""

import pytest

from repro.obs import (
    NULL_OBSERVER,
    NULL_PROFILER,
    CollectingTracer,
    FlightRecorder,
    MetricsRegistry,
    NullTracer,
    Observer,
    Profiler,
)


def test_disabled_tracer_normalizes_to_none():
    assert Observer(NullTracer()).trace is None


def test_enabled_tracer_is_kept_as_given():
    recorder = FlightRecorder()
    assert Observer(recorder).trace is recorder


def test_default_profiler_is_the_null_profiler():
    assert Observer().prof is NULL_PROFILER
    assert Observer().metrics is None


def test_default_observer_records_nothing():
    assert not NULL_OBSERVER.enabled
    assert not Observer(NullTracer(), None, NULL_PROFILER).enabled


@pytest.mark.parametrize(
    "sinks",
    [
        {"trace": CollectingTracer()},
        {"trace": FlightRecorder()},
        {"metrics": MetricsRegistry()},
        {"prof": Profiler()},
    ],
    ids=["collecting-tracer", "flight-recorder", "metrics", "profiler"],
)
def test_any_single_enabled_sink_enables_the_observer(sinks):
    assert Observer(**sinks).enabled
