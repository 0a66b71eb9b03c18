"""Batch front end: corpus/file scheduling with cache + worker backends.

API::

    from repro.service import run_batch
    report = run_batch(programs, jobs=4, cache_dir=".repro-cache")
    report.loop_metrics          # ordered exactly like the serial path

    # heterogeneous sweep: one batch, per-job machines, distinct keys
    report = run_batch(programs * 3, machines=machines, jobs=4,
                       cache_dir=".repro-cache")

The command line (``python -m repro batch``) lives in
:mod:`repro.service.batch_cli`.

Execution (:mod:`repro.service.backends`): jobs=1 runs serially
in-process; jobs>1 runs the *chunked* process pool, which ships each
distinct machine to every worker once (keyed by digest, cached in the
worker initializer) and dispatches jobs in per-worker chunks, so
per-job pickling stops dominating small corpora.

The cache is consulted before the pool: hits come back as ``cached``
results without touching a worker, misses are scheduled and written
back.  Because the scheduler is deterministic and the cache key covers
every input (see :mod:`repro.service.keys`), a warm rerun returns
byte-identical metrics — including the original run's timing fields —
at cache-read speed.  The cache is a fan-out directory
(``--cache-dir``), or a ``repro serve`` daemon's shared cache over HTTP
(``--cache-url``).

An :class:`~repro.obs.observer.Observer` crosses process boundaries
inside the job results: whenever it records anything (a tracer, a
metrics registry or an enabled profiler), every job returns its trace
events, instruments and spans in ``JobResult.observed``, and
:func:`run_batch` folds them into the observer in submission order and
then drops them from the result, so the ``--trace`` output and the
scheduler instruments in ``--metrics-out`` are identical at any
``--jobs`` level, modulo wall-clock times, and each event is held once.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.progress import (
    KIND_SUBMITTED,
    CallbackProgress,
    JSONLProgress,
    ProgressSink,
    ProgressTracker,
    Straggler,
    StragglerWatchdog,
    job_event,
    result_event,
)
from repro.service.backends import ExecutionBackend, resolve_backend
from repro.service.cache import CacheBackend, CacheStats, open_cache
from repro.service.jobs import (
    JOB_CACHED,
    JOB_OK,
    JobResult,
    ScheduleJob,
    make_jobs,
    order_results,
)
from repro.service.keys import cache_key
from repro.service.pool import DEFAULT_FLIGHT_CAPACITY, PoolStats


@dataclasses.dataclass
class BatchReport:
    """Everything one batch run produced."""

    results: List[JobResult]  # in submission order
    pool: PoolStats
    cache: Optional[CacheStats]  # None when caching was disabled
    wall_seconds: float
    cache_location: Optional[str] = None  # backend.describe(), if caching
    trace_records: Optional[List[dict]] = None  # merged events, loop-tagged
    observed_jobs: int = 0  # jobs whose observations were merged
    stragglers: Optional[List[Straggler]] = None  # None unless progress on
    straggler_factor: Optional[float] = None

    @property
    def loop_metrics(self) -> list:
        """Ordered LoopMetrics of every job that produced one."""
        return [r.metrics for r in self.results if r.metrics is not None]

    @property
    def ok(self) -> bool:
        """True when every job produced metrics (ok or cached)."""
        return all(result.ok for result in self.results)

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for result in self.results:
            tally[result.status] = tally.get(result.status, 0) + 1
        return tally

    def job_latencies(self) -> List[float]:
        """Worker-side wall times of every computed (non-cached) job."""
        return [
            result.seconds
            for result in self.results
            if result.status != JOB_CACHED and result.seconds > 0
        ]

    def latency_quantiles(self) -> Optional[Dict[str, float]]:
        """p50/p90/p99 over computed-job latencies (None when no jobs ran)."""
        from repro.obs.metrics import Histogram

        latencies = self.job_latencies()
        if not latencies:
            return None
        histogram = Histogram()
        for seconds in latencies:
            histogram.record(seconds)
        return histogram.quantiles()

    def summary_lines(self) -> "Tuple[List[str], List[str]]":
        """``(status_lines, diagnostic_lines)`` for the CLI wrap-up.

        Status lines (counts, cache, pool, latency) describe the run;
        diagnostic lines (stragglers, per-job errors) are warnings and
        always belong on stderr so stdout can carry machine-readable
        output (``--out -``).
        """
        counts = self.counts()
        parts = " ".join(
            f"{status}={counts[status]}"
            for status in ("ok", "cached", "failed", "timeout", "crashed")
            if counts.get(status)
        )
        n = len(self.results)
        unscheduled = sum(
            1
            for r in self.results
            if r.metrics is not None and not r.metrics.success
        )
        rate = n / self.wall_seconds if self.wall_seconds > 0 else 0.0
        lines = [
            f"batch: {n} loops  {parts or '(empty)'}"
            + (f"  [{unscheduled} failed to pipeline]" if unscheduled else "")
        ]
        if self.cache is not None:
            location = f" [{self.cache_location}]" if self.cache_location else ""
            lines.append(
                f"cache: {self.cache.hits} hits, {self.cache.misses} misses, "
                f"{self.cache.corrupt} corrupt, {self.cache.writes} writes"
                + location
            )
        pool = self.pool
        if pool.fallback_serial:
            mode = "serial"
        else:
            mode = f"{pool.backend} x{pool.workers} workers"
            if pool.chunks:
                mode += f" ({pool.chunks} chunks)"
        lines.append(
            f"pool: {mode}  utilization={pool.utilization:.0%}  "
            f"retries={pool.retries}  rebuilds={pool.rebuilds}  "
            f"wall={self.wall_seconds:.2f}s ({rate:.1f} loops/s)"
        )
        quantiles = self.latency_quantiles()
        if quantiles is not None:
            lines.append(
                "latency: "
                + "  ".join(
                    f"{name}={seconds * 1e3:.1f}ms"
                    for name, seconds in quantiles.items()
                )
                + f"  over {len(self.job_latencies())} computed job(s)"
            )

        diagnostics: List[str] = []
        if self.stragglers:
            worst = max(self.stragglers, key=lambda s: s.ratio)
            factor = self.straggler_factor or 0.0
            diagnostics.append(
                f"stragglers: {len(self.stragglers)} job(s) exceeded "
                f"{factor:g}x median latency "
                f"(worst {worst.loop} at {worst.ratio:.1f}x, {worst.seconds:.2f}s)"
            )
        for result in self.results:
            if not result.ok:
                line = f"  {result.status.upper()} {result.name}: {result.error}"
                if result.flight:
                    line += f"  [flight recorder: {len(result.flight)} events]"
                diagnostics.append(line)
        return lines, diagnostics

    def summary(self) -> str:
        """The full multi-line summary block (status + diagnostics)."""
        lines, diagnostics = self.summary_lines()
        return "\n".join(lines + diagnostics)


def _record_metrics(registry, report: BatchReport) -> None:
    """Mirror a batch's outcome into a repro.obs MetricsRegistry."""
    if registry is None:
        return
    for status, count in report.counts().items():
        registry.counter(f"service.jobs.{status}").inc(count)
    if report.cache is not None:
        registry.counter("service.cache.hits").inc(report.cache.hits)
        registry.counter("service.cache.misses").inc(report.cache.misses)
        registry.counter("service.cache.corrupt").inc(report.cache.corrupt)
        registry.counter("service.cache.writes").inc(report.cache.writes)
    registry.counter("service.pool.retries").inc(report.pool.retries)
    registry.counter("service.pool.rebuilds").inc(report.pool.rebuilds)
    registry.gauge("service.pool.utilization").set(report.pool.utilization)
    registry.timer("service.batch.wall").add(report.wall_seconds)
    latencies = registry.histogram("service.job.seconds")
    for seconds in report.job_latencies():
        latencies.record(seconds)


def _fold_observed(results: Sequence[JobResult], observer: Observer) -> List[dict]:
    """Merge every job's observations into ``observer``, in result order,
    and drop them from the results, so the report holds each event once.

    Returns the loop-tagged event records ``--trace`` writes.  Each
    record keeps its job-local ``seq``: it is tagged before the event is
    re-emitted, which lets a :class:`~repro.obs.trace.CollectingTracer`
    re-stamp it.  Cached jobs carry no observations (a cache hit replays
    no scheduler decisions).
    """
    records: List[dict] = []
    for result in results:
        if result.observed is None:
            continue
        events, metrics_dump, profile_snapshot = result.observed
        result.observed = None
        for event in events:
            records.append(
                {**event.to_dict(), "loop": result.name, "job": result.index}
            )
            if observer.trace is not None:
                observer.trace.emit(event)
        if observer.metrics is not None:
            observer.metrics.merge_dump(metrics_dump)
        if observer.prof.enabled:
            observer.prof.merge_snapshot(profile_snapshot)
    return records


def run_batch(
    programs: Sequence[object],
    machine=None,
    algorithm: str = "slack",
    options=None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    cache_url: Optional[str] = None,
    cache_fallback_dir: Optional[str] = None,
    cache_auth_token: Optional[str] = None,
    cache: Optional[CacheBackend] = None,
    use_cache: bool = True,
    observer: Optional[Observer] = None,
    max_retries: int = 2,
    faults: Optional[Dict[int, str]] = None,
    machines: Optional[Sequence[object]] = None,
    backend: object = "auto",
    progress=None,
    progress_log: Optional[str] = None,
    straggler_factor: float = 4.0,
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
) -> BatchReport:
    """Schedule a batch of programs (DoLoop or LoopBody) as a service.

    Args:
        programs: What to schedule; results keep this order.
        jobs: Worker processes; 1 (the default) runs serially in-process.
        timeout: Per-job wall-clock budget in seconds (None = unlimited).
        cache_dir: Root of a directory result cache; mutually exclusive
            with ``cache_url``.  Both None (and no ``cache`` instance)
            disables caching entirely.
        cache_url: Base URL of a ``repro serve`` daemon; results are
            read from and written to its shared cache over HTTP
            (see :class:`repro.server.httpcache.HTTPCache`).
        cache_fallback_dir: Local directory the HTTP cache degrades to
            when the server is unreachable (``cache_url`` only).
        cache_auth_token: Bearer token for ``cache_url``.
        cache: A :class:`CacheBackend` instance to use directly,
            mutually exclusive with the location arguments — this is
            how the server's ``/v1/batch`` endpoint runs batches
            against its own shared, locked cache.
        use_cache: Set False to bypass reads *and* writes even when a
            cache location is set.
        observer: Optional :class:`repro.obs.Observer`.  When it
            records anything, every computed job runs under its own
            tracer, registry and profiler and returns their contents in
            ``JobResult.observed``; they are merged into the observer's
            in submission order and dropped from the results
            (loop-tagged events land in ``report.trace_records``, what
            CLI ``--trace`` writes, and ``report.observed_jobs`` counts
            the jobs merged); its registry also receives ``service.*``
            counters/gauges/timers.
        max_retries: Crash-recovery resubmissions per job.
        faults: Optional ``{job index: fault}`` injection map (see
            :class:`repro.service.jobs.ScheduleJob`).
        machines: Optional per-program machine overrides (None entries
            fall back to ``machine``); unlocks heterogeneous sweeps
            through one parallel, cached batch.
        backend: Execution strategy — ``"auto"`` (serial at ``jobs=1``,
            the chunked process pool otherwise) | ``"serial"`` |
            ``"chunked"``, or an
            :class:`~repro.service.backends.ExecutionBackend` instance.
        progress: Optional progress consumer — a
            :class:`repro.obs.ProgressSink` or a plain callable taking
            one :class:`repro.obs.ProgressEvent`; receives the full
            lifecycle stream (submitted/started/finished/cached/
            failed/quarantined plus synthetic straggler events).
        progress_log: Optional path; every progress event is appended
            as JSONL while the batch runs (what CLI ``--progress-log``
            writes).
        straggler_factor: Flag jobs slower than this multiple of the
            rolling median job latency (must exceed 1.0).
        flight_events: Ring capacity of the per-job flight recorder —
            the last N scheduler events attached to crash/timeout/
            failure records (``result.flight``) and their progress
            events.  0 disables the recorder entirely.
    """
    from repro.machine import cydra5

    machine = machine or cydra5()
    observer = observer or NULL_OBSERVER
    metrics = observer.metrics
    started = time.perf_counter()
    all_jobs = make_jobs(
        programs,
        algorithm=algorithm,
        options=options,
        faults=faults,
        machines=machines,
    )

    watchdog = StragglerWatchdog(factor=straggler_factor)
    tracker: Optional[ProgressTracker] = None
    # The finally below closes the progress sinks, whichever step raises.
    try:
        sinks: List[ProgressSink] = []
        if progress is not None:
            sinks.append(
                progress
                if isinstance(progress, ProgressSink)
                else CallbackProgress(progress)
            )
        if progress_log is not None:
            sinks.append(JSONLProgress(progress_log))
        if sinks or metrics is not None:
            tracker = ProgressTracker(
                total=len(all_jobs),
                sinks=sinks,
                metrics=metrics,
                watchdog=watchdog,
            )
            for job in all_jobs:
                tracker.emit(job_event(KIND_SUBMITTED, job.index, job.name))

        cached_results: List[JobResult] = []
        pending: List[ScheduleJob] = all_jobs
        if not use_cache:
            cache = None
        elif cache is None:
            cache = open_cache(
                cache_dir=cache_dir,
                cache_url=cache_url,
                cache_fallback_dir=cache_fallback_dir,
                auth_token=cache_auth_token,
            )
        if cache is not None:
            pending = []
            for job in all_jobs:
                job.key = cache_key(
                    job.program,
                    job.machine if job.machine is not None else machine,
                    job.algorithm,
                    job.options,
                )
                hit = cache.get(job.key)
                if hit is not None and job.fault is None:
                    cached_results.append(
                        JobResult(
                            index=job.index,
                            name=job.name,
                            status=JOB_CACHED,
                            metrics=hit,
                        )
                    )
                    if tracker is not None:
                        tracker.emit(result_event(cached_results[-1]))
                else:
                    pending.append(job)

        exec_backend = (
            backend
            if isinstance(backend, ExecutionBackend)
            else resolve_backend(backend, workers=jobs)
        )
        computed, pool_stats = exec_backend.run(
            pending,
            machine,
            timeout=timeout,
            max_retries=max_retries,
            observe=observer.enabled,
            progress=tracker.emit if tracker is not None else None,
            flight_events=flight_events,
        )
        if cache is not None:
            for result in computed:
                job = all_jobs[result.index]
                if result.status == JOB_OK and result.metrics is not None and job.key:
                    cache.put(job.key, result.metrics)

        ordered = order_results(cached_results + list(computed))
        observed_jobs = sum(result.observed is not None for result in ordered)
        trace_records = (
            _fold_observed(ordered, observer) if observer.enabled else None
        )
    finally:
        if tracker is not None:
            tracker.close()

    report = BatchReport(
        results=ordered,
        pool=pool_stats,
        cache=cache.stats if cache is not None else None,
        wall_seconds=time.perf_counter() - started,
        cache_location=cache.describe() if cache is not None else None,
        trace_records=trace_records,
        observed_jobs=observed_jobs,
        stragglers=tracker.stragglers if tracker is not None else None,
        straggler_factor=straggler_factor,
    )
    _record_metrics(metrics, report)
    return report
