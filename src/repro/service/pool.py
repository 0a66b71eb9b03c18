"""Shared worker-pool machinery for the execution backends.

This module holds everything a backend (:mod:`repro.service.backends`)
needs to run jobs safely: the in-worker ``SIGALRM`` budget, fault
injection, per-job observation, crash quarantine, and the
:class:`PoolStats` record.  The execution *strategies* themselves —
serial in-process, and the chunked process pool with worker-resident
machines — live in ``backends.py``.

Fault-tolerance ladder (most to least capable, degrading gracefully):

1. ``ProcessPoolExecutor`` workers; each job is guarded *inside* the
   worker by a ``SIGALRM`` wall-clock budget, so a slow loop returns a
   structured ``timeout`` result without poisoning the pool.
2. If a worker process dies (segfault, ``os._exit``, OOM kill) the pool
   is broken; every job still missing a result is resubmitted to a
   fresh single-worker quarantine pool after an exponential backoff, a
   bounded number of times.  A job that keeps killing its worker
   exhausts its retries and is reported ``crashed`` — the rest of the
   batch still completes.
3. A worker that hangs hard enough to ignore ``SIGALRM`` (stuck in a C
   extension) trips the pool-side backstop deadline; unfinished jobs
   are reported ``timeout`` and the stuck processes are abandoned.
4. If process pools are unavailable at all, jobs run serially
   in-process — same results, no isolation.

Results are deterministic regardless of the path taken: the scheduler
itself is a pure function, and :func:`repro.service.jobs.order_results`
restores submission order.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import threading
import time
from typing import List, Optional, Sequence, Tuple

from repro.experiments.runner import measure_loop
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.prof import Profiler
from repro.obs.trace import (
    DEFAULT_FLIGHT_CAPACITY,
    CollectingTracer,
    FlightRecorder,
    JobStart,
)
from repro.service.jobs import (
    JOB_CRASHED,
    JOB_FAILED,
    JOB_OK,
    JOB_TIMEOUT,
    JobResult,
    ScheduleJob,
)

#: Seconds of slack granted on top of the per-job budget before the
#: pool-side backstop declares a worker unresponsive.
BACKSTOP_GRACE = 5.0

#: Fatal signals the flight recorder spills on before the worker dies.
#: SIGKILL/OOM-kill cannot be caught; those crashes leave no dump.
_FATAL_SIGNALS = ("SIGSEGV", "SIGBUS", "SIGABRT", "SIGILL", "SIGFPE")


class _JobTimeoutError(Exception):
    """Raised inside a worker when the SIGALRM budget expires."""


def _raise_timeout(signum, frame):  # pragma: no cover - trivial
    raise _JobTimeoutError()


def _inject_fault(fault: str) -> None:
    """Built-in fault injection (tests / resilience drills)."""
    if fault == "crash":
        # Die by signal rather than os._exit so the flight recorder's
        # fatal-signal handler (when installed) can spill the ring
        # first; the parent sees a dead worker either way.
        if hasattr(signal, "SIGSEGV"):
            os.kill(os.getpid(), signal.SIGSEGV)
        os._exit(13)  # non-POSIX fallback (and: signal somehow blocked)
    if fault == "exit":
        os._exit(13)  # the uncatchable drill: no handler, no dump
    if fault == "raise":
        raise RuntimeError("injected fault: raise")
    if fault.startswith("hang:"):
        time.sleep(float(fault.split(":", 1)[1]))
        return
    raise ValueError(f"unknown fault {fault!r}")


# ----------------------------------------------------------------------
# Flight-recorder spill files (crash forensics across process death)
# ----------------------------------------------------------------------
def flight_path(flight_dir: str, index: int) -> str:
    """Spill file for one job."""
    return os.path.join(flight_dir, f"flight-{index:06d}.json")


def _write_flight(flight_dir: str, job: ScheduleJob, recorder) -> None:
    """Spill the ring to disk (atomic rename; called from signal context)."""
    path = flight_path(flight_dir, job.index)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w") as handle:
            json.dump(
                {"job": job.index, "name": job.name, "events": recorder.dump()},
                handle,
            )
        os.replace(tmp, path)
    except OSError:  # a failed spill must never mask the real fault
        pass


def load_flight(flight_dir: Optional[str], index: int) -> Optional[List[dict]]:
    """Read back a worker's spilled ring; None when absent or corrupt."""
    if flight_dir is None:
        return None
    try:
        with open(flight_path(flight_dir, index)) as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    events = payload.get("events")
    return events if isinstance(events, list) and events else None


def attach_flight(result: JobResult, flight_dir: Optional[str]) -> JobResult:
    """Attach a spilled dump to a failure record that lacks one."""
    if result.ok or result.flight is not None:
        return result
    dump = load_flight(flight_dir, result.index)
    if dump is None:
        return result
    return dataclasses.replace(result, flight=dump)


class _FlightTee:
    """Forward events to a primary tracer AND the flight ring.

    Used when a job is both observed and flight-recording: the
    :class:`~repro.obs.trace.CollectingTracer` stamps seq/ts as before
    (so the observed events are unchanged) and the ring keeps a
    reference to the last N of the same events.
    """

    enabled = True

    def __init__(self, primary, flight):
        self.primary = primary
        self.flight = flight

    def emit(self, event) -> None:
        self.primary.emit(event)
        self.flight.append(event)


def execute_job(
    job: ScheduleJob,
    machine,
    timeout: Optional[float] = None,
    observe: bool = False,
    flight_dir: Optional[str] = None,
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
) -> JobResult:
    """Run one job to a structured result; never raises.

    ``job.machine`` (when set) overrides the batch-default ``machine``.
    With ``observe``, the job runs under its own tracer, metrics
    registry and profiler, and the result carries their contents in
    ``observed`` whatever its status — partial observations of a
    failed or timed-out job included — for the caller to fold into the
    batch's observer.  That is how observations cross process
    boundaries.

    ``flight_events > 0`` (the default) runs the job under a bounded
    :class:`~repro.obs.trace.FlightRecorder`; a timeout or raise
    attaches the ring dump to the returned failure record directly,
    and with a ``flight_dir`` a fatal signal (segfault/abort) spills
    the ring to disk before the process dies, for the parent to
    collect.  Only worker processes get a ``flight_dir``: the spill
    handler ends the process, which in-process would be the caller.
    A worker hung in a C extension (backstop timeout) and a
    ``SIGKILL``/OOM kill leave no dump — those are the documented
    limits of in-process forensics.  Nor does a fatal signal whose
    handler was installed outside Python (``python -X faulthandler``
    or ``-X dev``): that handler is left in place, so no flight ring is
    spilled for it.

    The wall-clock budget uses ``SIGALRM`` and therefore only applies on
    POSIX main threads.  Pool worker processes always qualify (and the
    pool-side backstop guards them beyond it); the serial path qualifies
    only when its caller runs on the main thread, so a serial batch run
    from a server request thread has no budget at all.
    """
    machine = job.machine if job.machine is not None else machine
    tracer = registry = profiler = None
    if observe:
        tracer = CollectingTracer()
        registry = MetricsRegistry()
        profiler = Profiler()

    recorder = None
    sched_tracer = tracer
    if flight_events and flight_events > 0:
        recorder = FlightRecorder(flight_events)
        recorder.emit(JobStart(job=job.index, loop=job.name))
        sched_tracer = (
            _FlightTee(tracer, recorder) if tracer is not None else recorder
        )

    on_main_thread = threading.current_thread() is threading.main_thread()
    installed_fatal: List[Tuple[int, object]] = []
    if recorder is not None and flight_dir is not None and on_main_thread:

        def _spill(signum, frame):  # pragma: no cover - dies immediately
            try:
                _write_flight(flight_dir, job, recorder)
            finally:
                os._exit(128 + signum)

        for name in _FATAL_SIGNALS:
            signum = getattr(signal, name, None)
            # getsignal() is None for a handler Python did not install
            # (faulthandler's, under -X faulthandler or -X dev), which
            # signal.signal() could not restore: leave that one alone.
            if signum is None or signal.getsignal(signum) is None:
                continue
            try:
                installed_fatal.append((signum, signal.signal(signum, _spill)))
            except (ValueError, OSError):  # non-main thread / exotic OS
                pass

    started = time.perf_counter()
    use_alarm = (
        timeout is not None
        and timeout > 0
        and hasattr(signal, "SIGALRM")
        and on_main_thread
    )
    previous_handler = None
    metrics = None
    try:
        if use_alarm:
            previous_handler = signal.signal(signal.SIGALRM, _raise_timeout)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        if job.fault:
            _inject_fault(job.fault)
        metrics = measure_loop(
            job.program,
            machine,
            algorithm=job.algorithm,
            options=job.options,
            observer=Observer(sched_tracer, registry, profiler),
        )
        status, error = JOB_OK, None
    except _JobTimeoutError:
        status, error = JOB_TIMEOUT, f"exceeded {timeout:.4g}s wall-clock budget"
    except Exception as exc:  # job faults must not take down the batch
        status, error = JOB_FAILED, f"{type(exc).__name__}: {exc}"
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
        for signum, previous in installed_fatal:
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - defensive
                pass
    # Built after the alarm is disarmed, so a budget expiry cannot
    # interrupt the dumps and make this function raise.
    return JobResult(
        index=job.index,
        name=job.name,
        status=status,
        metrics=metrics,
        error=error,
        seconds=time.perf_counter() - started,
        flight=(
            recorder.dump()
            if recorder is not None and status != JOB_OK
            else None
        ),
        observed=(
            (tracer.events, registry.dump(), profiler.snapshot())
            if observe
            else None
        ),
    )


def _pool_worker(
    payload: Tuple[ScheduleJob, object, Optional[float], bool, Optional[str], int]
) -> JobResult:
    """Top-level per-job worker entry point (must be picklable by name)."""
    job, machine, timeout, observe, flight_dir, flight_events = payload
    return execute_job(
        job,
        machine,
        timeout,
        observe=observe,
        flight_dir=flight_dir,
        flight_events=flight_events,
    )


@dataclasses.dataclass
class PoolStats:
    """What the pool did: throughput, faults, recovery effort."""

    workers: int
    jobs: int
    ok: int = 0
    failed: int = 0
    timeouts: int = 0
    crashes: int = 0
    retries: int = 0  # crash-recovery resubmissions across all jobs
    rebuilds: int = 0  # pools torn down and recreated after breakage
    fallback_serial: bool = False
    busy_seconds: float = 0.0  # sum of worker-side job wall times
    wall_seconds: float = 0.0
    backend: str = ""  # which ExecutionBackend produced these results
    chunks: int = 0  # chunked backend: futures submitted

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity spent running jobs (0..1)."""
        capacity = self.wall_seconds * max(1, self.workers)
        if capacity <= 0:
            return 0.0
        return min(1.0, self.busy_seconds / capacity)


def _tally(stats: PoolStats, results: Sequence[JobResult]) -> None:
    for result in results:
        stats.busy_seconds += result.seconds
        if result.status == JOB_OK:
            stats.ok += 1
        elif result.status == JOB_FAILED:
            stats.failed += 1
        elif result.status == JOB_TIMEOUT:
            stats.timeouts += 1
        elif result.status == JOB_CRASHED:
            stats.crashes += 1


def run_quarantined(
    job: ScheduleJob,
    machine,
    timeout: Optional[float],
    max_retries: int,
    backoff: float,
    stats: PoolStats,
    observe: bool = False,
    flight_dir: Optional[str] = None,
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
) -> JobResult:
    """Run one job in an isolated single-worker pool, retrying crashes.

    Isolation turns "some worker died" into "THIS job kills workers":
    after ``max_retries`` resubmissions (with doubling backoff) the job
    is reported ``crashed`` without having disturbed any other job.
    A crashed verdict collects the worker's spilled flight-recorder
    ring (when one exists) so the failure record still names the ops
    in flight when the worker died.
    """
    import concurrent.futures

    attempt = 0
    while True:
        try:
            executor = concurrent.futures.ProcessPoolExecutor(max_workers=1)
        except (OSError, ValueError, RuntimeError):
            # In this process: no spill, as on every serial path.
            stats.fallback_serial = True
            return dataclasses.replace(
                execute_job(
                    job, machine, timeout, observe=observe, flight_events=flight_events
                ),
                retries=attempt,
            )
        hung = False
        broken = False
        try:
            future = executor.submit(
                _pool_worker,
                (job, machine, timeout, observe, flight_dir, flight_events),
            )
            backstop = (
                timeout + BACKSTOP_GRACE
                if timeout is not None and timeout > 0
                else None
            )
            try:
                return dataclasses.replace(
                    future.result(timeout=backstop), retries=attempt
                )
            except concurrent.futures.TimeoutError:
                hung = True
                return JobResult(
                    index=job.index,
                    name=job.name,
                    status=JOB_TIMEOUT,
                    error="backstop: worker unresponsive past its budget",
                    retries=attempt,
                )
            except concurrent.futures.process.BrokenProcessPool:
                broken = True
        finally:
            executor.shutdown(wait=not (broken or hung), cancel_futures=True)
        attempt += 1
        if attempt > max_retries:
            return attach_flight(
                JobResult(
                    index=job.index,
                    name=job.name,
                    status=JOB_CRASHED,
                    error=f"worker died; gave up after {max_retries} resubmission(s)",
                    retries=attempt - 1,
                ),
                flight_dir,
            )
        stats.retries += 1
        if backoff > 0:
            time.sleep(min(5.0, backoff * (2 ** (attempt - 1))))
