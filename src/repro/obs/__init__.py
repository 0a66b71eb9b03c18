"""Observability: tracing, metrics, profiling, export, and post-mortems.

The package is a cross-cutting companion to ``repro.core``: the driver,
every scheduling attempt, the corpus runner and the batch service
accept one optional :class:`~repro.obs.observer.Observer`, which holds a
:class:`~repro.obs.trace.Tracer`, a
:class:`~repro.obs.metrics.MetricsRegistry` and a
:class:`~repro.obs.prof.Profiler`.  The default records nothing and
costs one attribute test per decision.  See DESIGN.md
§"Observability" for the event schema and hook locations.
"""

from repro.obs.explain import explain, flight_postmortem
from repro.obs.export import (
    load_jsonl,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)
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
from repro.obs.progress import (
    CallbackProgress,
    CollectingProgress,
    JSONLProgress,
    NullProgressSink,
    ProgressEvent,
    ProgressSink,
    ProgressTracker,
    Straggler,
    StragglerWatchdog,
    TTYProgress,
    lifecycle_sequence,
    load_progress_log,
)
from repro.obs.render import render_lifetime_chart, render_mrt_occupancy
from repro.obs.history import (
    HistoryError,
    HistoryRun,
    HistoryStore,
    MetricTrend,
    mad_anomalies,
    metric_trends,
)
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
