"""Observability: tracing, metrics, profiling, export, and post-mortems.

The package is a cross-cutting companion to ``repro.core``: the driver,
every scheduling attempt, the corpus runner and the batch service
accept one optional :class:`~repro.obs.observer.Observer`, which holds a
:class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.prof.Profiler`.  The default records nothing and
costs one attribute test per decision.  See DESIGN.md
§"Observability" for the event schema and hook locations.

Importing the package loads only what the scheduler runs: the tracer,
metrics, profiler and observer modules.  The rest (trace export, the
``explain`` post-mortem and its renders, progress events, bench
history) loads on first use of one of its names (see
:mod:`repro._deferred`).  ``repro.obs.explain`` is the post-mortem
function even after ``import repro.obs.explain`` has loaded the module
of the same name.
"""

import sys
import types

from repro._deferred import deferred_exports
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    record_mrt_occupancy,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.prof import NULL_PROFILER, NullProfiler, Profiler
from repro.obs.trace import (
    DEFAULT_FLIGHT_CAPACITY,
    EVENT_TYPES,
    NULL_TRACER,
    AttemptFail,
    AttemptStart,
    BoundsRecompute,
    CapGrow,
    CollectingTracer,
    Eject,
    FlightRecorder,
    ForcePlace,
    IIEscalate,
    JobStart,
    NullTracer,
    Place,
    ScheduleFound,
    TraceEvent,
    Tracer,
    event_from_dict,
    replay_times,
    split_attempts,
    surviving_places,
)

__getattr__ = deferred_exports(globals(), {
    "repro.obs.explain": ("explain", "flight_postmortem"),
    "repro.obs.export": (
        "load_jsonl",
        "to_chrome_trace",
        "to_jsonl",
        "write_chrome_trace",
        "write_jsonl",
    ),
    "repro.obs.progress": (
        "CallbackProgress",
        "CollectingProgress",
        "JSONLProgress",
        "NullProgressSink",
        "ProgressEvent",
        "ProgressSink",
        "ProgressTracker",
        "Straggler",
        "StragglerWatchdog",
        "TTYProgress",
        "lifecycle_sequence",
        "load_progress_log",
    ),
    "repro.obs.render": ("render_lifetime_chart", "render_mrt_occupancy"),
    "repro.obs.history": (
        "HistoryError",
        "HistoryRun",
        "HistoryStore",
        "MetricTrend",
        "mad_anomalies",
        "metric_trends",
    ),
})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading the submodule repro.obs.explain binds it here under
        # its own name, which would shadow the function of that name.
        if name == "explain" and isinstance(value, types.ModuleType):
            value = value.explain
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "explain",
    "flight_postmortem",
    "HistoryError",
    "HistoryRun",
    "HistoryStore",
    "MetricTrend",
    "mad_anomalies",
    "metric_trends",
    "load_jsonl",
    "to_chrome_trace",
    "to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Timer",
    "record_mrt_occupancy",
    "NULL_OBSERVER",
    "Observer",
    "NULL_PROFILER",
    "NullProfiler",
    "Profiler",
    "CallbackProgress",
    "CollectingProgress",
    "JSONLProgress",
    "NullProgressSink",
    "ProgressEvent",
    "ProgressSink",
    "ProgressTracker",
    "Straggler",
    "StragglerWatchdog",
    "TTYProgress",
    "lifecycle_sequence",
    "load_progress_log",
    "render_lifetime_chart",
    "render_mrt_occupancy",
    "DEFAULT_FLIGHT_CAPACITY",
    "EVENT_TYPES",
    "NULL_TRACER",
    "AttemptFail",
    "AttemptStart",
    "BoundsRecompute",
    "CapGrow",
    "CollectingTracer",
    "Eject",
    "FlightRecorder",
    "ForcePlace",
    "IIEscalate",
    "JobStart",
    "NullTracer",
    "Place",
    "ScheduleFound",
    "TraceEvent",
    "Tracer",
    "event_from_dict",
    "replay_times",
    "split_attempts",
    "surviving_places",
]
