"""Batch front end: corpus/file scheduling with cache + worker backends.

API::

    from repro.service import run_batch
    report = run_batch(programs, jobs=4, cache_dir=".repro-cache")
    report.loop_metrics          # ordered exactly like the serial path

    # heterogeneous sweep: one batch, per-job machines, distinct keys
    report = run_batch(programs * 3, machines=machines, jobs=4,
                       cache_db="results.sqlite")

CLI::

    python -m repro batch --corpus 60 --jobs 4
    python -m repro batch examples/loops --jobs 2 --timeout 30
    python -m repro batch a.loop b.loop --cache-db ci.sqlite --out m.json
    python -m repro batch --corpus 60 --jobs 4 --trace batch.jsonl
    python -m repro batch --corpus 60 --sweep-load-latency 2,13,27
    python -m repro batch --corpus 30 --machine vliw-wide
    python -m repro batch --corpus 30 --sweep-machine cydra5 \\
        --sweep-machine vliw-wide --sweep-machine simd:depth=3
    python -m repro batch --gc --max-cache-bytes 500M --max-cache-age 7d

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
at cache-read speed.  Two storage backends are available behind one
protocol: a fan-out directory (``--cache-dir``) and a single-file
sqlite database (``--cache-db``, WAL mode, shareable across CI runs).

An :class:`~repro.obs.observer.Observer` crosses process boundaries
via per-job JSONL spool files merged in submission order
(:mod:`repro.service.spool`): whenever it records anything (a tracer,
a metrics registry or an enabled profiler), every job's trace events,
instruments and spans reach it, so the ``--trace`` output and the
scheduler instruments in ``--metrics-out`` are identical at any
``--jobs`` level, modulo wall-clock times.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import shutil
import sys
import tempfile
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
    TTYProgress,
    job_event,
    result_event,
)
from repro.service.backends import ExecutionBackend, resolve_backend
from repro.service.cache import (
    CacheBackend,
    CacheStats,
    collect_garbage,
    open_cache,
)
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
from repro.service.spool import (
    SpoolMergeStats,
    merge_spools,
    record_spool_stats,
    write_trace_records,
)

#: Default on-disk cache location for the CLI (API default is no cache).
DEFAULT_CACHE_DIR = ".repro-cache"


@dataclasses.dataclass
class BatchReport:
    """Everything one batch run produced."""

    results: List[JobResult]  # in submission order
    pool: PoolStats
    cache: Optional[CacheStats]  # None when caching was disabled
    wall_seconds: float
    cache_location: Optional[str] = None  # backend.describe(), if caching
    spool: Optional[SpoolMergeStats] = None  # None unless observability on
    trace_records: Optional[List[dict]] = None  # merged events, loop-tagged
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
        diagnostic lines (spool degradation, stragglers, per-job
        errors) are warnings and always belong on stderr so stdout can
        carry machine-readable output (``--out -``).
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
        if self.spool is not None and self.spool.degraded:
            diagnostics.append(
                f"spool: DEGRADED  {self.spool.missing} missing, "
                f"{self.spool.corrupt} corrupt "
                f"(merged {self.spool.merged})"
            )
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


def run_batch(
    programs: Sequence[object],
    machine=None,
    algorithm: str = "slack",
    options=None,
    jobs: int = 1,
    timeout: Optional[float] = None,
    cache_dir: Optional[str] = None,
    cache_db: Optional[str] = None,
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
            with ``cache_db`` and ``cache_url``.  All three None (and no
            ``cache`` instance) disables caching entirely.
        cache_db: Path of a single-file sqlite result cache (WAL mode).
        cache_url: Base URL of a ``repro serve`` daemon; results are
            read from and written to its shared cache over HTTP
            (see :class:`repro.server.httpcache.HTTPCache`).
        cache_fallback_dir: Local directory the HTTP cache degrades to
            when the server is unreachable (``cache_url`` only).
        cache_auth_token: Bearer token for ``cache_url``.
        cache: An already-open :class:`CacheBackend` instance to use
            directly; the caller owns its lifecycle (it is not closed
            here).  Mutually exclusive with the location arguments —
            this is how the server's ``/v1/batch`` endpoint runs
            batches against its own shared, locked cache.
        use_cache: Set False to bypass reads *and* writes even when a
            cache location is set.
        observer: Optional :class:`repro.obs.Observer`.  When it
            records anything, every computed job runs under its own
            tracer, registry and profiler, whose contents are merged
            into the observer's in submission order (loop-tagged events
            also land in ``report.trace_records``, what CLI ``--trace``
            writes); its registry also receives ``service.*``
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

    sinks: List[ProgressSink] = []
    if progress is not None:
        sinks.append(
            progress
            if isinstance(progress, ProgressSink)
            else CallbackProgress(progress)
        )
    if progress_log is not None:
        sinks.append(JSONLProgress(progress_log))
    tracker: Optional[ProgressTracker] = None
    if sinks or metrics is not None:
        tracker = ProgressTracker(
            total=len(all_jobs),
            sinks=sinks,
            metrics=metrics,
            watchdog=StragglerWatchdog(factor=straggler_factor),
        )
        for job in all_jobs:
            tracker.emit(job_event(KIND_SUBMITTED, job.index, job.name))

    cached_results: List[JobResult] = []
    pending: List[ScheduleJob] = all_jobs
    owns_cache = cache is None
    if not use_cache:
        cache = None
    elif cache is None:
        cache = open_cache(
            cache_dir=cache_dir,
            cache_db=cache_db,
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
    spool_dir = (
        tempfile.mkdtemp(prefix="repro-spool-") if observer.enabled else None
    )
    # Fatal-signal spill area: a worker that dies mid-job writes its
    # flight ring here so the quarantine path can attach it post-mortem.
    flight_dir = (
        tempfile.mkdtemp(prefix="repro-flight-") if flight_events > 0 else None
    )
    try:
        computed, pool_stats = exec_backend.run(
            pending,
            machine,
            timeout=timeout,
            max_retries=max_retries,
            spool_dir=spool_dir,
            progress=tracker.emit if tracker is not None else None,
            flight_dir=flight_dir,
            flight_events=flight_events,
        )
        if cache is not None:
            for result in computed:
                job = all_jobs[result.index]
                if result.status == JOB_OK and result.metrics is not None and job.key:
                    cache.put(job.key, result.metrics)

        ordered = order_results(cached_results + list(computed))
        trace_records: Optional[List[dict]] = None
        spool_stats: Optional[SpoolMergeStats] = None
        if spool_dir is not None:
            trace_records, spool_stats = merge_spools(
                spool_dir, ordered, observer=observer
            )
    finally:
        if spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)
        if flight_dir is not None:
            shutil.rmtree(flight_dir, ignore_errors=True)
        if tracker is not None:
            tracker.close()

    report = BatchReport(
        results=ordered,
        pool=pool_stats,
        cache=cache.stats if cache is not None else None,
        wall_seconds=time.perf_counter() - started,
        cache_location=cache.describe() if cache is not None else None,
        spool=spool_stats,
        trace_records=trace_records,
        stragglers=tracker.stragglers if tracker is not None else None,
        straggler_factor=straggler_factor,
    )
    _record_metrics(metrics, report)
    if spool_stats is not None:
        record_spool_stats(metrics, spool_stats)
    if cache is not None and owns_cache:
        cache.close()
    return report


# ----------------------------------------------------------------------
# Source loading (files / directories / generated corpus)
# ----------------------------------------------------------------------
class BatchSourceError(Exception):
    """A source file could not be read or parsed (CLI exits 2)."""


def load_sources(paths: Sequence[str]) -> list:
    """Parse loop-language files (or directories of ``*.loop`` files).

    Raises :class:`BatchSourceError` with a one-line message naming the
    offending file on any read or parse problem.
    """
    from repro.frontend.parser import ParseError, parse_loop

    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if name.endswith(".loop")
            )
            if not entries:
                raise BatchSourceError(f"{path}: directory contains no .loop files")
            files.extend(entries)
        else:
            files.append(path)
    programs = []
    for path in files:
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as error:
            raise BatchSourceError(f"{path}: {error.strerror or error}") from error
        try:
            programs.append(parse_loop(source))
        except (ParseError, ValueError) as error:
            raise BatchSourceError(f"{path}: {error}") from error
    return programs


def _parse_faults(specs: Optional[Sequence[str]]) -> Optional[Dict[int, str]]:
    if not specs:
        return None
    faults: Dict[int, str] = {}
    for spec in specs:
        index, _, fault = spec.partition(":")
        faults[int(index)] = fault
    return faults


_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_size(text: str) -> int:
    """``"500M"`` → bytes; bare numbers are bytes already."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([kmgtKMGT]?)[bB]?\s*", text)
    if not match:
        raise ValueError(f"cannot parse size {text!r} (try 500M, 2G, 1048576)")
    value = float(match.group(1))
    suffix = match.group(2).lower()
    return int(value * _SIZE_SUFFIXES.get(suffix, 1))


def parse_age(text: str) -> float:
    """``"7d"`` → seconds; bare numbers are seconds already."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smhdwSMHDW]?)\s*", text)
    if not match:
        raise ValueError(f"cannot parse age {text!r} (try 7d, 12h, 30m, 3600)")
    value = float(match.group(1))
    suffix = match.group(2).lower()
    return value * _AGE_SUFFIXES.get(suffix, 1.0)


def _parse_latencies(text: str) -> List[int]:
    try:
        latencies = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as error:
        raise ValueError(f"cannot parse latency list {text!r}") from error
    if not latencies:
        raise ValueError("empty latency list")
    return latencies


# ----------------------------------------------------------------------
# CLI (python -m repro batch ...)
# ----------------------------------------------------------------------
def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Schedule a corpus or loop files in parallel, with a "
        "content-addressed result cache (directory or sqlite).",
    )
    parser.add_argument(
        "sources",
        nargs="*",
        help="loop-language files or directories of *.loop files",
    )
    parser.add_argument(
        "--corpus",
        type=int,
        metavar="N",
        help="schedule the paper's generated N-loop corpus instead of files",
    )
    parser.add_argument(
        "--seed", type=int, default=1993, help="corpus seed (default 1993)"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-job wall-clock budget (default: unlimited)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"directory result cache root (default {DEFAULT_CACHE_DIR}; "
        "mutually exclusive with --cache-db)",
    )
    parser.add_argument(
        "--cache-db",
        default=None,
        metavar="PATH",
        help="single-file sqlite result cache (WAL mode, shareable "
        "across runs; mutually exclusive with --cache-dir)",
    )
    parser.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help="share a `repro serve` daemon's warm result cache over HTTP "
        "(mutually exclusive with --cache-dir/--cache-db); degrades to "
        "--cache-fallback-dir when the server is unreachable",
    )
    parser.add_argument(
        "--cache-fallback-dir",
        default=None,
        metavar="DIR",
        help="local directory cache used when --cache-url is unreachable "
        f"(default {DEFAULT_CACHE_DIR}; requires --cache-url)",
    )
    parser.add_argument(
        "--cache-auth-token",
        default=os.environ.get("REPRO_SERVER_TOKEN"),
        metavar="TOKEN",
        help="bearer token for --cache-url (default: $REPRO_SERVER_TOKEN)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache (no reads, no writes)",
    )
    parser.add_argument(
        "--gc",
        action="store_true",
        help="garbage-collect the cache instead of scheduling: evict "
        "entries past --max-cache-age, then --gc-policy order past "
        "--max-cache-bytes",
    )
    parser.add_argument(
        "--gc-policy",
        choices=("oldest", "lru"),
        default="oldest",
        help="gc eviction order: oldest (creation time) or lru (last "
        "access; sqlite records reads, directory caches approximate "
        "with file mtime)",
    )
    parser.add_argument(
        "--max-cache-bytes",
        metavar="SIZE",
        help="gc bound: keep the cache under SIZE (accepts 500M, 2G, ...)",
    )
    parser.add_argument(
        "--max-cache-age",
        metavar="AGE",
        help="gc bound: evict entries older than AGE (accepts 7d, 12h, ...)",
    )
    parser.add_argument(
        "--algorithm",
        default="slack",
        help="scheduler algorithm (default slack)",
    )
    parser.add_argument(
        "--machine",
        metavar="NAME[:k=v,...]",
        default=None,
        help="registered target machine with optional parameter "
        "overrides, e.g. vliw-wide or simd:depth=3 (default cydra5; "
        "see repro.machine.registry)",
    )
    parser.add_argument(
        "--load-latency",
        type=int,
        default=None,
        help="memory latency register (default: the machine's default; "
        "13 for cydra5)",
    )
    parser.add_argument(
        "--sweep-load-latency",
        metavar="L1,L2,...",
        help="heterogeneous sweep: schedule the whole input once per "
        "latency in one batch (per-job machines, distinct cache keys); "
        "sweeps the --machine family's load_latency knob",
    )
    parser.add_argument(
        "--sweep-machine",
        action="append",
        metavar="NAME[:k=v,...]",
        help="heterogeneous machine-grid sweep: schedule the whole "
        "input once per named machine in one batch (repeatable, e.g. "
        "--sweep-machine cydra5 --sweep-machine vliw-wide "
        "--sweep-machine simd:depth=3)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write the merged per-job scheduler trace (JSONL, each event "
        "tagged with its loop) — identical at any --jobs level",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the per-loop LoopMetrics as a JSON array to PATH "
        "('-' writes the JSON to stdout and moves every status line "
        "to stderr)",
    )
    parser.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="force the live status line on stderr (default: only when "
        "stderr is a terminal)",
    )
    parser.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="suppress the live status line",
    )
    parser.add_argument(
        "--progress-log",
        metavar="PATH",
        help="append every progress event (submitted/started/finished/"
        "cached/failed/quarantined/straggler) as JSONL to PATH",
    )
    parser.add_argument(
        "--straggler-factor",
        type=float,
        default=4.0,
        metavar="K",
        help="flag jobs slower than K x the rolling median job latency "
        "(default 4.0)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged service metrics registry (counters, "
        "gauges, latency quantiles) as JSON to PATH",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the merged profiler span snapshot as JSON to PATH",
    )
    parser.add_argument(
        "--flight-events",
        type=int,
        default=None,
        metavar="N",
        help="per-job flight-recorder ring capacity: the last N scheduler "
        "events attached to crash/timeout/failure records "
        f"(default {DEFAULT_FLIGHT_CAPACITY})",
    )
    parser.add_argument(
        "--no-flight",
        action="store_true",
        help="disable the per-job flight recorder entirely",
    )
    parser.add_argument(
        "--explain-failures",
        action="store_true",
        help="render a flight-recorder post-mortem on stderr for every "
        "failed/timed-out/crashed job that captured one",
    )
    parser.add_argument(
        "--history",
        metavar="DB",
        help="append this run's batch summary to a JSON-lines history "
        "file (see `python -m repro history`)",
    )
    parser.add_argument(
        "--inject",
        action="append",
        metavar="INDEX:FAULT",
        help=argparse.SUPPRESS,  # fault injection: crash | exit | raise | hang:N
    )
    return parser


def _gc_main(args) -> int:
    """``batch --gc``: evict against whichever cache backend is configured."""
    cache_dir = args.cache_dir
    if cache_dir is None and args.cache_db is None:
        cache_dir = DEFAULT_CACHE_DIR
    try:
        max_bytes = parse_size(args.max_cache_bytes) if args.max_cache_bytes else None
        max_age = parse_age(args.max_cache_age) if args.max_cache_age else None
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if cache_dir is not None and not os.path.isdir(cache_dir):
        print(f"error: no cache at {cache_dir}", file=sys.stderr)
        return 2
    cache = open_cache(cache_dir=cache_dir, cache_db=args.cache_db)
    try:
        report = collect_garbage(
            cache, max_bytes=max_bytes, max_age_seconds=max_age,
            policy=args.gc_policy,
        )
    finally:
        cache.close()
    print(f"{cache.describe()}")
    print(report.summary())
    if max_bytes is None and max_age is None:
        print("(no --max-cache-bytes/--max-cache-age bound: inventory only)")
    return 0


def batch_main(argv: Optional[List[str]] = None) -> int:
    args = build_batch_parser().parse_args(argv)
    from repro.core import ALGORITHMS

    cache_locations = [
        flag
        for flag, value in (
            ("--cache-dir", args.cache_dir),
            ("--cache-db", args.cache_db),
            ("--cache-url", args.cache_url),
        )
        if value is not None
    ]
    if len(cache_locations) > 1:
        print(
            f"error: pass at most one of {', '.join(cache_locations)}",
            file=sys.stderr,
        )
        return 2
    if args.cache_fallback_dir is not None and args.cache_url is None:
        print(
            "error: --cache-fallback-dir requires --cache-url",
            file=sys.stderr,
        )
        return 2
    if args.gc:
        return _gc_main(args)
    if args.algorithm not in ALGORITHMS:
        print(
            f"error: unknown algorithm {args.algorithm!r}; "
            f"pick from {', '.join(sorted(ALGORITHMS))}",
            file=sys.stderr,
        )
        return 2
    if args.corpus is not None and args.sources:
        print("error: pass either --corpus N or source files, not both", file=sys.stderr)
        return 2
    if args.corpus is not None:
        if args.corpus < 1:
            print("error: --corpus must be positive", file=sys.stderr)
            return 2
        from repro.workloads import paper_corpus

        programs = paper_corpus(args.corpus, seed=args.seed)
    elif args.sources:
        try:
            programs = load_sources(args.sources)
        except BatchSourceError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        print("error: provide source files or --corpus N", file=sys.stderr)
        return 2

    if args.sweep_load_latency and args.sweep_machine:
        print(
            "error: pass either --sweep-load-latency or --sweep-machine, "
            "not both",
            file=sys.stderr,
        )
        return 2
    from repro.experiments.runner import sweep_layout
    from repro.machine.registry import (
        MachineError,
        get_family,
        machine_from_cli,
        parse_machine_arg,
    )

    machines = None
    try:
        base_name, base_overrides = parse_machine_arg(args.machine or "cydra5")
        base_family = get_family(base_name)
        if (
            args.load_latency is not None
            and "load_latency" in base_family.param_names()
            and "load_latency" not in base_overrides
        ):
            base_overrides["load_latency"] = args.load_latency
        machine = base_family.build(**base_overrides)
        if args.sweep_load_latency:
            latencies = _parse_latencies(args.sweep_load_latency)
            sweep_machines = [
                base_family.build(
                    **{**base_overrides, "load_latency": latency}
                )
                for latency in latencies
            ]
        elif args.sweep_machine:
            sweep_machines = [
                machine_from_cli(spec) for spec in args.sweep_machine
            ]
        else:
            sweep_machines = None
    except (MachineError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if sweep_machines is not None:
        programs, machines = sweep_layout(programs, sweep_machines)

    cache_dir = args.cache_dir
    cache_fallback_dir = None
    if args.no_cache:
        cache_dir = None
    elif args.cache_url is not None:
        # HTTP cache; degrade to a local directory cache when the
        # server is unreachable so the batch always completes.
        cache_fallback_dir = args.cache_fallback_dir or DEFAULT_CACHE_DIR
    elif cache_dir is None and args.cache_db is None:
        cache_dir = DEFAULT_CACHE_DIR

    if args.straggler_factor <= 1.0:
        print("error: --straggler-factor must exceed 1.0", file=sys.stderr)
        return 2

    flight_events = args.flight_events
    if flight_events is None:
        flight_events = DEFAULT_FLIGHT_CAPACITY
    if args.no_flight:
        flight_events = 0
    if flight_events < 0:
        print("error: --flight-events must be >= 0", file=sys.stderr)
        return 2

    out_to_stdout = args.out == "-"
    # Status lines describe the run; with --out - they join the
    # diagnostics on stderr so stdout carries pure JSON.
    status_stream = sys.stderr if out_to_stdout else sys.stdout

    show_tty = args.progress
    if show_tty is None:
        show_tty = sys.stderr.isatty()

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.prof import Profiler
    from repro.obs.trace import CollectingTracer

    observer = Observer(
        CollectingTracer() if args.trace else None,
        MetricsRegistry() if args.metrics_out else None,
        Profiler() if args.profile_out else None,
    )

    try:
        report = run_batch(
            programs,
            machine=machine,
            algorithm=args.algorithm,
            jobs=args.jobs,
            timeout=args.timeout,
            cache_dir=cache_dir,
            cache_db=None if args.no_cache else args.cache_db,
            cache_url=None if args.no_cache else args.cache_url,
            cache_fallback_dir=cache_fallback_dir,
            cache_auth_token=args.cache_auth_token,
            machines=machines,
            faults=_parse_faults(args.inject),
            observer=observer,
            progress=TTYProgress(total=len(programs)) if show_tty else None,
            progress_log=args.progress_log,
            straggler_factor=args.straggler_factor,
            flight_events=flight_events,
        )
    except OSError as exc:  # e.g. unwritable --progress-log
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status_lines, diagnostics = report.summary_lines()
    print("\n".join(status_lines), file=status_stream)
    for line in diagnostics:
        print(line, file=sys.stderr)
    if args.explain_failures:
        from repro.obs.explain import flight_postmortem

        for result in report.results:
            if not result.ok and result.flight:
                print(
                    flight_postmortem(
                        result.name,
                        result.flight,
                        status=result.status,
                        error=result.error,
                    ),
                    file=sys.stderr,
                )
    if args.history:
        from repro.obs.history import HistoryStore, batch_report_payload

        try:
            run_id = HistoryStore(args.history).record_payload(
                "batch-cli", batch_report_payload(report)
            )
        except (OSError, ValueError) as exc:
            print(
                f"error: cannot record history to {args.history}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"history: run #{run_id} -> {args.history}", file=status_stream)
    if args.trace:
        try:
            write_trace_records(report.trace_records or [], args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}", file=sys.stderr)
            return 2
        print(
            f"trace: {len(report.trace_records or [])} events "
            f"({report.spool.merged if report.spool else 0} jobs) -> {args.trace}",
            file=status_stream,
        )
    if args.metrics_out:
        import json as _json

        try:
            with open(args.metrics_out, "w") as handle:
                _json.dump(observer.metrics.dump(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(
                f"error: cannot write metrics registry to {args.metrics_out}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"metrics registry -> {args.metrics_out}", file=status_stream)
    if args.profile_out:
        import json as _json

        try:
            with open(args.profile_out, "w") as handle:
                _json.dump(observer.prof.snapshot(), handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            print(
                f"error: cannot write profile to {args.profile_out}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"profile snapshot -> {args.profile_out}", file=status_stream)
    if args.progress_log:
        print(f"progress log -> {args.progress_log}", file=status_stream)
    if out_to_stdout:
        from repro.experiments.export import to_json

        print(to_json(report.loop_metrics))
    elif args.out:
        from repro.experiments.export import write_json

        try:
            write_json(report.loop_metrics, args.out)
        except OSError as exc:
            print(f"error: cannot write metrics to {args.out}: {exc}", file=sys.stderr)
            return 2
        print(
            f"metrics: {len(report.loop_metrics)} records -> {args.out}",
            file=status_stream,
        )
    return 0 if report.ok else 1
