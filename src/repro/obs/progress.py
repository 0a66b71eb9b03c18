"""Structured batch-progress events: live status, JSONL log, stragglers.

A batch run over hundreds of loops used to be a black box until it
exited.  This module makes the service legible while it runs:

* Every job emits a small, schema-versioned stream of
  :class:`ProgressEvent`\\ s — ``submitted`` when the batch accepts it,
  ``cached`` when the result cache answers, ``started`` when an
  execution backend dispatches it, ``finished``/``failed`` when its
  result lands, ``quarantined`` when a pool crash reroutes it.  Both
  execution backends emit the *same per-job sequence*; only
  timestamps and cross-job interleaving differ (asserted by the parity
  tests).
* :class:`ProgressTracker` fans events out to any number of sinks — a
  throttled TTY status line (:class:`TTYProgress`), a JSONL file
  (:class:`JSONLProgress`), an in-memory collector — and runs the
  straggler watchdog.
* The watchdog flags any job whose latency (or in-flight elapsed time)
  exceeds ``factor`` × the rolling median of finished-job latencies,
  surfacing them as synthetic ``straggler`` events and
  ``service.stragglers.*`` metrics instead of letting one pathological
  loop silently stretch the batch.

Everything here is parent-process-side bookkeeping — a handful of dict
operations per job, not per scheduler decision — so the cost is
independent of loop size and bounded by the 5-way overhead bench
(``benchmarks/bench_scheduler_speed.py``).  The default remains "no
progress": backends take ``progress=None`` and skip every emission.
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, TextIO

PROGRESS_SCHEMA = "repro.progress"
PROGRESS_SCHEMA_VERSION = 1

#: Per-job lifecycle kinds, in the order a single job can see them.
#: ``straggler`` is a synthetic watchdog annotation, not a lifecycle
#: stage — parity comparisons exclude it.
KIND_SUBMITTED = "submitted"
KIND_STARTED = "started"
KIND_FINISHED = "finished"
KIND_CACHED = "cached"
KIND_FAILED = "failed"
KIND_QUARANTINED = "quarantined"
KIND_STRAGGLER = "straggler"

LIFECYCLE_KINDS = (
    KIND_SUBMITTED,
    KIND_STARTED,
    KIND_FINISHED,
    KIND_CACHED,
    KIND_FAILED,
    KIND_QUARANTINED,
)
EVENT_KINDS = LIFECYCLE_KINDS + (KIND_STRAGGLER,)

#: Terminal kinds: exactly one of these ends every job's stream.
TERMINAL_KINDS = (KIND_FINISHED, KIND_CACHED, KIND_FAILED)


@dataclasses.dataclass
class ProgressEvent:
    """One step of one job's life, JSONL-serializable.

    ``ts`` is wall-clock (``time.time()``) so logs from different
    processes and machines line up; consumers that need determinism
    (parity tests, the HTML report) drop or rebase it.
    """

    kind: str
    job: int
    loop: str
    ts: float
    status: Optional[str] = None  # job status for terminal events
    seconds: Optional[float] = None  # job latency (terminal) / elapsed
    ratio: Optional[float] = None  # straggler: latency over median
    flight: Optional[List[dict]] = None  # flight-recorder dump (failures)

    def to_dict(self) -> dict:
        record = {
            "schema": PROGRESS_SCHEMA,
            "v": PROGRESS_SCHEMA_VERSION,
            "kind": self.kind,
            "job": self.job,
            "loop": self.loop,
            "ts": self.ts,
        }
        if self.status is not None:
            record["status"] = self.status
        if self.seconds is not None:
            record["seconds"] = self.seconds
        if self.ratio is not None:
            record["ratio"] = self.ratio
        if self.flight is not None:
            record["flight"] = self.flight
        return record


def event_from_dict(record: dict) -> ProgressEvent:
    """Decode one JSONL record (raises ``ValueError`` on junk)."""
    if record.get("schema") != PROGRESS_SCHEMA:
        raise ValueError(f"not a progress record: {record.get('schema')!r}")
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown progress kind {kind!r}")
    return ProgressEvent(
        kind=kind,
        job=int(record["job"]),
        loop=str(record.get("loop", "")),
        ts=float(record.get("ts", 0.0)),
        status=record.get("status"),
        seconds=record.get("seconds"),
        ratio=record.get("ratio"),
        flight=record.get("flight"),
    )


def load_progress_log(path: str) -> List[ProgressEvent]:
    """Read a ``--progress-log`` JSONL file back into events."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(event_from_dict(json.loads(line)))
    return events


def job_event(
    kind: str,
    index: int,
    loop: str,
    status: Optional[str] = None,
    seconds: Optional[float] = None,
    flight: Optional[List[dict]] = None,
) -> ProgressEvent:
    """Stamp one lifecycle event with the current wall clock."""
    return ProgressEvent(
        kind=kind, job=index, loop=loop, ts=time.time(),
        status=status, seconds=seconds, flight=flight,
    )


def result_event(result) -> ProgressEvent:
    """The terminal event for a :class:`repro.service.jobs.JobResult`.

    Failure events carry the job's flight-recorder dump (when one was
    captured), so a progress log is a self-contained post-mortem source.
    """
    from repro.service.jobs import JOB_CACHED, JOB_OK

    if result.status == JOB_CACHED:
        kind = KIND_CACHED
    elif result.status == JOB_OK:
        kind = KIND_FINISHED
    else:
        kind = KIND_FAILED
    return job_event(
        kind, result.index, result.name,
        status=result.status, seconds=result.seconds or None,
        flight=getattr(result, "flight", None) or None,
    )


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class ProgressSink:
    """Consumer protocol: receives every event, closed once at the end."""

    enabled: bool = True

    def emit(self, event: ProgressEvent) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release; called exactly once when the batch ends."""


class NullProgressSink(ProgressSink):
    """The zero-cost default (backends skip emission entirely)."""

    enabled = False

    def emit(self, event: ProgressEvent) -> None:  # pragma: no cover
        pass


class CallbackProgress(ProgressSink):
    """Adapt a plain callable into a sink (the ``run_batch`` API takes
    either)."""

    def __init__(self, callback: Callable[[ProgressEvent], None]):
        self._callback = callback

    def emit(self, event: ProgressEvent) -> None:
        self._callback(event)


class CollectingProgress(ProgressSink):
    """Keep every event in memory (tests, the report builder)."""

    def __init__(self) -> None:
        self.events: List[ProgressEvent] = []

    def emit(self, event: ProgressEvent) -> None:
        self.events.append(event)


class JSONLProgress(ProgressSink):
    """Append events to a JSONL file as they happen (line-buffered, so
    a killed run still leaves a usable log)."""

    def __init__(self, path: str):
        self.path = path
        self._handle: Optional[TextIO] = open(path, "w", buffering=1)

    def emit(self, event: ProgressEvent) -> None:
        if self._handle is not None:
            self._handle.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


class TTYProgress(ProgressSink):
    """A single rewritten status line on a terminal stream.

    Renders at most once per ``interval`` seconds (plus a final render
    at close), so a fast batch is not throttled by terminal writes.
    The line is plain ``\\r``-overwrite + erase-to-EOL; no curses, no
    threads.
    """

    def __init__(
        self,
        total: int,
        stream: Optional[TextIO] = None,
        interval: float = 0.1,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.total = total
        self.stream = stream if stream is not None else sys.stderr
        self.interval = interval
        self._clock = clock
        self._started = clock()
        self._last_render = -1e9
        self._counts: Dict[str, int] = {}
        self._stragglers = 0
        self._wrote = False

    def emit(self, event: ProgressEvent) -> None:
        if event.kind == KIND_STRAGGLER:
            self._stragglers += 1
        else:
            self._counts[event.kind] = self._counts.get(event.kind, 0) + 1
        now = self._clock()
        if now - self._last_render >= self.interval:
            self._render(now)

    def _done(self) -> int:
        return sum(self._counts.get(kind, 0) for kind in TERMINAL_KINDS)

    def render_line(self) -> str:
        done = self._done()
        elapsed = max(1e-9, self._clock() - self._started)
        parts = [f"batch {done}/{self.total}"]
        for kind in (KIND_FINISHED, KIND_CACHED, KIND_FAILED, KIND_QUARANTINED):
            count = self._counts.get(kind, 0)
            if count:
                parts.append(f"{kind}={count}")
        parts.append(f"{done / elapsed:.1f} loops/s")
        parts.append(f"elapsed {elapsed:.1f}s")
        if self._stragglers:
            parts.append(f"stragglers={self._stragglers}")
        return "  ".join(parts)

    def _render(self, now: float) -> None:
        try:
            self.stream.write("\r" + self.render_line() + "\x1b[K")
            self.stream.flush()
        except (OSError, ValueError):  # closed/broken stream: go quiet
            return
        self._last_render = now
        self._wrote = True

    def close(self) -> None:
        if not self._wrote and not self._counts:
            return
        self._render(self._clock())
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass


# ----------------------------------------------------------------------
# Straggler watchdog
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Straggler:
    """One flagged job (terminal or still in flight when flagged)."""

    job: int
    loop: str
    seconds: float
    ratio: float  # seconds over the median at flag time
    in_flight: bool  # True when flagged before its result landed


class StragglerWatchdog:
    """Rolling k×median latency check over finished-job latencies.

    The median is maintained over every terminal latency seen so far
    (insertion into a sorted list: corpora are thousands, not billions).
    A job is flagged at most once, either when its result lands slow or
    while it is still running past the threshold — whichever the event
    stream notices first.  Nothing is flagged until ``min_samples``
    latencies exist and the threshold clears ``min_seconds``, so tiny
    corpora and micro-jobs cannot spam warnings.
    """

    def __init__(
        self,
        factor: float = 4.0,
        min_samples: int = 5,
        min_seconds: float = 0.05,
    ):
        if factor <= 1.0:
            raise ValueError(f"straggler factor must exceed 1.0, got {factor}")
        self.factor = factor
        self.min_samples = min_samples
        self.min_seconds = min_seconds
        self._latencies: List[float] = []

    def observe(self, seconds: float) -> None:
        bisect.insort(self._latencies, seconds)

    @property
    def median(self) -> Optional[float]:
        if len(self._latencies) < self.min_samples:
            return None
        n = len(self._latencies)
        mid = self._latencies[n // 2]
        if n % 2 == 0:
            mid = (mid + self._latencies[n // 2 - 1]) / 2.0
        return mid

    def threshold(self) -> Optional[float]:
        """Latency above which a job counts as a straggler (None while
        the sample is too small to judge)."""
        median = self.median
        if median is None:
            return None
        return max(self.min_seconds, self.factor * median)

    def ratio(self, seconds: float) -> Optional[float]:
        """``seconds`` over the current median when past the threshold."""
        threshold = self.threshold()
        if threshold is None or seconds <= threshold:
            return None
        return seconds / max(1e-12, self.median)


class ProgressTracker:
    """The batch's progress hub: fan-out, counts, straggler watchdog.

    ``emit`` is what backends call (their ``progress=`` parameter).  It
    updates counters, runs the watchdog (flagging both slow results and
    still-running jobs on every event arrival), then forwards the event
    — plus any synthetic ``straggler`` events — to every sink.
    """

    def __init__(
        self,
        total: int,
        sinks: Sequence[ProgressSink] = (),
        metrics=None,  # Optional[MetricsRegistry]
        watchdog: Optional[StragglerWatchdog] = None,
    ):
        self.total = total
        self.sinks = [sink for sink in sinks if sink is not None and sink.enabled]
        self.metrics = metrics
        self.watchdog = watchdog or StragglerWatchdog()
        self.counts: Dict[str, int] = {}
        self.stragglers: List[Straggler] = []
        self._flagged: Dict[int, bool] = {}
        self._running: Dict[int, ProgressEvent] = {}  # job -> started event

    # -- the backend-facing callback ----------------------------------
    def emit(self, event: ProgressEvent) -> None:
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        if event.kind == KIND_STARTED:
            self._running[event.job] = event
        elif event.kind in TERMINAL_KINDS:
            self._running.pop(event.job, None)
        self._forward(event)
        if event.kind in (KIND_FINISHED, KIND_FAILED) and event.seconds:
            self._judge(event, in_flight=False)
            self.watchdog.observe(event.seconds)
        self._sweep_running(event.ts)

    def _forward(self, event: ProgressEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def _judge(self, event: ProgressEvent, in_flight: bool) -> None:
        if self._flagged.get(event.job):
            return
        ratio = self.watchdog.ratio(event.seconds or 0.0)
        if ratio is None:
            return
        self._flagged[event.job] = True
        straggler = Straggler(
            job=event.job,
            loop=event.loop,
            seconds=event.seconds or 0.0,
            ratio=ratio,
            in_flight=in_flight,
        )
        self.stragglers.append(straggler)
        self._forward(
            ProgressEvent(
                kind=KIND_STRAGGLER,
                job=event.job,
                loop=event.loop,
                ts=event.ts,
                status=event.status,
                seconds=event.seconds,
                ratio=ratio,
            )
        )
        if self.metrics is not None:
            self.metrics.counter("service.stragglers.flagged").inc()
            self.metrics.gauge("service.stragglers.worst_ratio").set(
                max(ratio, max((s.ratio for s in self.stragglers), default=0.0))
            )
            median = self.watchdog.median
            if median is not None:
                self.metrics.gauge("service.stragglers.median_seconds").set(median)

    def _sweep_running(self, now_ts: float) -> None:
        """Flag still-running jobs that have already blown the budget."""
        if not self._running:
            return
        threshold = self.watchdog.threshold()
        if threshold is None:
            return
        # _judge only touches _flagged/stragglers, so no copy is needed.
        for job, started in self._running.items():
            if self._flagged.get(job):
                continue
            elapsed = now_ts - started.ts
            if elapsed > threshold:
                self._judge(
                    ProgressEvent(
                        kind=KIND_STARTED,
                        job=job,
                        loop=started.loop,
                        ts=now_ts,
                        seconds=elapsed,
                    ),
                    in_flight=True,
                )

    # -- wrap-up -------------------------------------------------------
    def record_metrics(self) -> None:
        """Mirror final progress counters into ``service.progress.*``."""
        if self.metrics is None:
            return
        for kind, count in sorted(self.counts.items()):
            self.metrics.counter(f"service.progress.{kind}").inc(count)

    def close(self) -> None:
        self.record_metrics()
        for sink in self.sinks:
            sink.close()

    def straggler_summary(self) -> Optional[str]:
        """One warning line for the batch wrap-up, or None when clean."""
        if not self.stragglers:
            return None
        worst = max(self.stragglers, key=lambda s: s.ratio)
        return (
            f"stragglers: {len(self.stragglers)} job(s) exceeded "
            f"{self.watchdog.factor:g}x median latency "
            f"(worst {worst.loop} at {worst.ratio:.1f}x, {worst.seconds:.2f}s)"
        )


def lifecycle_sequence(events: Sequence[ProgressEvent]) -> Dict[int, List[str]]:
    """Per-job kind sequences with synthetic kinds dropped.

    This is the cross-backend parity view: serial and process-pool
    runs of the same batch must produce identical mappings (timestamps
    and cross-job interleaving are already gone).
    """
    ordered: Dict[int, List[str]] = {}
    for event in events:
        if event.kind not in LIFECYCLE_KINDS:
            continue
        ordered.setdefault(event.job, []).append(event.kind)
    return ordered
