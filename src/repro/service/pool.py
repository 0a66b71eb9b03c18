"""The batch service's job runner: :func:`run_jobs`.

:func:`run_jobs` turns a list of :class:`ScheduleJob`\\ s into
submission-ordered :class:`JobResult`\\ s plus a :class:`PoolStats`.
Where a job runs changes wall-clock time and nothing else:

- With one worker, the jobs run in this process, one after another.
  That is the reference every pool run must match byte for byte
  (modulo wall-clock fields).
- With more, they run in rounds on a process pool.  Jobs go out in
  per-worker *chunks*, and each distinct machine ships to every worker
  once, through the pool initializer, keyed by
  :func:`repro.service.keys.machine_digest`; chunk payloads carry only
  digests.  So the dominant per-job pickling cost is O(distinct
  machines × workers) instead of O(jobs), and jobs with their own
  machines (heterogeneous sweeps) share the worker-resident copies.

Fault-tolerance ladder (most to least capable, degrading gracefully):

1. Each job is guarded *inside* its worker by a ``SIGALRM`` wall-clock
   budget, so a slow loop returns a structured ``timeout`` result
   without poisoning the pool.
2. If a worker process dies (segfault, ``os._exit``, OOM kill) the
   round's pool is broken; every job still missing a result re-runs
   alone on a fresh one-worker pool after an exponential backoff, a
   bounded number of times.  A job that keeps killing its worker
   exhausts its retries and is reported ``crashed`` — the rest of the
   batch still completes.  Those pools start and drain through the
   same two helpers as a round's pool.
3. A worker that hangs hard enough to ignore ``SIGALRM`` (stuck in a C
   extension) trips the pool-side backstop deadline; unfinished jobs
   are reported ``timeout`` and the stuck processes are abandoned.
4. If no process pool can start, jobs run in this process — same
   results, no isolation.

Only workers spill flight rings on a fatal signal, into a directory
made once a pool has started and removed before :func:`run_jobs`
returns.

Progress contract: ``started`` when a job is dispatched, exactly one
terminal ``finished``/``failed`` event when its result materializes —
synthesized backstop timeouts included — and ``quarantined`` before a
crash re-run, which gets no second ``started``.  ``progress`` is a
plain callable (``ProgressTracker.emit``); ``None`` (the default) skips
every emission.

Results are deterministic regardless of the path taken: the scheduler
itself is a pure function, and :func:`repro.service.jobs.order_results`
restores submission order.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math
import os
import pickle
import shutil
import signal
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import measure_loop
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.progress import (
    KIND_QUARANTINED,
    KIND_STARTED,
    job_event,
    result_event,
)
from repro.obs.trace import DEFAULT_FLIGHT_CAPACITY, CollectingTracer, FlightRecorder
from repro.service.jobs import (
    JOB_CRASHED,
    JOB_FAILED,
    JOB_OK,
    JOB_TIMEOUT,
    JobResult,
    ScheduleJob,
    order_results,
)

#: Seconds of slack granted on top of the per-job budget before the
#: pool-side backstop declares a worker unresponsive.
BACKSTOP_GRACE = 5.0

#: Target this many chunks per worker, so a slow chunk cannot idle the
#: rest of the pool for long (work-stealing granularity).
CHUNKS_PER_WORKER = 4

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
    if fault.startswith("stuck:"):
        # Hold SIGALRM off for the sleep, as code stuck in a C extension
        # would: only the pool-side backstop can end the job in time.
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            time.sleep(float(fault.split(":", 1)[1]))
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)
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
    With ``observe``, the job runs under its own tracer and metrics
    registry, and the result carries their contents in ``observed``
    whatever its status — partial observations of a
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
    tracer = registry = None
    if observe:
        tracer = CollectingTracer()
        registry = MetricsRegistry()

    recorder = None
    sched_tracer = tracer
    if flight_events and flight_events > 0:
        recorder = FlightRecorder(flight_events)
        recorder.emit({"kind": "job_start", "job": job.index, "loop": job.name})
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
            observer=Observer(sched_tracer, registry),
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
        observed=(tracer.events, registry.dump()) if observe else None,
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
    retries: int = 0  # crash re-runs across all jobs
    rebuilds: int = 0  # rounds whose pool broke
    fallback_serial: bool = False
    busy_seconds: float = 0.0  # sum of worker-side job wall times
    wall_seconds: float = 0.0
    backend: str = ""  # "serial" at one worker, "chunked" otherwise
    chunks: int = 0  # futures submitted by the rounds (not crash re-runs)

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


def _emit_job(progress, kind: str, job: ScheduleJob) -> None:
    if progress is not None:
        progress(job_event(kind, job.index, job.name))


# ----------------------------------------------------------------------
# Worker side: machines resident per worker, jobs in chunks
# ----------------------------------------------------------------------
#: Worker-process-global machine table, installed by the pool
#: initializer.  Keyed by machine digest; populated once per worker.
_WORKER_MACHINES: Dict[str, object] = {}


def _worker_init(machines_blob: bytes) -> None:
    """Pool initializer: deserialize the machine table once per worker."""
    global _WORKER_MACHINES
    _WORKER_MACHINES = pickle.loads(machines_blob)


def _chunk_worker(
    entries: List[Tuple[ScheduleJob, str]],
    timeout: Optional[float],
    observe: bool,
    flight_dir: Optional[str],
    flight_events: int,
) -> List[JobResult]:
    """Run one chunk of (machine-stripped job, machine digest) entries.

    Every pool's initializer installs the table of every job's machine,
    so each digest is resident.
    """
    return [
        execute_job(
            job,
            _WORKER_MACHINES[digest],
            timeout,
            observe=observe,
            flight_dir=flight_dir,
            flight_events=flight_events,
        )
        for job, digest in entries
    ]


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
def _machine_table(
    jobs: Sequence[ScheduleJob], machine
) -> Tuple[Dict[str, object], List[str]]:
    """Digest table covering every job plus the per-job digest list.

    Digests are memoized by object identity, so a thousand jobs sharing
    one machine object hash it once.
    """
    from repro.service.keys import machine_digest

    digest_by_id: Dict[int, str] = {}
    table: Dict[str, object] = {}
    refs: List[str] = []
    for job in jobs:
        resolved = job.machine if job.machine is not None else machine
        digest = digest_by_id.get(id(resolved))
        if digest is None:
            digest = machine_digest(resolved)
            digest_by_id[id(resolved)] = digest
        table.setdefault(digest, resolved)
        refs.append(digest)
    return table, refs


def _partition(
    pending: Sequence[ScheduleJob], workers: int
) -> List[List[ScheduleJob]]:
    size = max(1, math.ceil(len(pending) / (workers * CHUNKS_PER_WORKER)))
    return [list(pending[i : i + size]) for i in range(0, len(pending), size)]


def _start_pool(workers: int, machines_blob: bytes):
    """A process pool whose workers hold the machine table, or None
    when no pool can start here."""
    try:
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker_init,
            initargs=(machines_blob,),
        )
    except (OSError, ValueError, RuntimeError):
        return None


def _drain(
    executor,
    futures: Dict[concurrent.futures.Future, List[ScheduleJob]],
    backstop: Optional[float],
    land: Callable[[JobResult], None],
) -> bool:
    """Land each chunk's results as they arrive, then shut the pool
    down; True when a worker died and broke the pool.

    Past ``backstop`` seconds (None: no deadline) each job of an
    unfinished chunk lands as a ``timeout``, and the pool is abandoned,
    not waited for: its workers outlived their own budgets, so they are
    terminated (interpreter exit would otherwise wait for them).  The
    jobs of a chunk that finished but was not collected land nothing,
    for the caller to run again (results are pure).
    """
    broken = hung = False
    try:
        try:
            for future in concurrent.futures.as_completed(
                futures, timeout=backstop
            ):
                try:
                    chunk_results = future.result()
                except concurrent.futures.process.BrokenProcessPool:
                    broken = True
                    continue
                except concurrent.futures.CancelledError:
                    continue
                for result in chunk_results:
                    land(result)
        except concurrent.futures.TimeoutError:
            hung = True
            for future, chunk in futures.items():
                if future.done() and not future.cancelled():
                    continue
                for job in chunk:
                    land(
                        JobResult(
                            index=job.index,
                            name=job.name,
                            status=JOB_TIMEOUT,
                            error="backstop: worker unresponsive past its budget",
                        )
                    )
    finally:
        if hung:
            _terminate(executor)
        else:
            executor.shutdown(wait=not broken, cancel_futures=True)
    return broken


def _terminate(executor) -> None:
    """Shut ``executor`` down without waiting and terminate its workers."""
    if hasattr(executor, "terminate_workers"):  # Python 3.14+
        executor.terminate_workers()
        return
    # shutdown() drops the executor's reference to its processes.
    workers = list((executor._processes or {}).values())
    executor.shutdown(wait=False, cancel_futures=True)
    for worker in workers:
        worker.terminate()


def _rerun_alone(
    job: ScheduleJob,
    entry: Tuple[ScheduleJob, str],
    machine,
    machines_blob: bytes,
    worker_args: tuple,
    max_retries: int,
    backoff: float,
    stats: PoolStats,
    land: Callable[[JobResult], None],
) -> None:
    """Re-run one job of a broken round on one-worker pools.

    Isolation turns "some worker died" into "THIS job kills workers":
    after ``max_retries`` re-runs (with doubling backoff) the job is
    reported ``crashed`` without having disturbed any other job.  A
    crashed verdict collects the worker's spilled flight-recorder ring
    (when one exists), so the failure record still names the ops in
    flight when the worker died.  ``worker_args`` are the chunk
    worker's ``(timeout, observe, flight_dir, flight_events)``.
    """
    timeout, observe, flight_dir, flight_events = worker_args
    backstop = None
    if timeout is not None and timeout > 0:
        backstop = timeout + BACKSTOP_GRACE
    retries = max(0, max_retries)
    for attempt in range(retries + 1):
        if attempt:
            stats.retries += 1
            if backoff > 0:
                time.sleep(min(5.0, backoff * (2 ** (attempt - 1))))
        executor = _start_pool(1, machines_blob)
        if executor is None:
            # In this process: no spill, as on every in-process path.
            stats.fallback_serial = True
            result = execute_job(
                job, machine, timeout, observe=observe, flight_events=flight_events
            )
            land(dataclasses.replace(result, retries=attempt))
            return
        future = executor.submit(_chunk_worker, [entry], *worker_args)
        # Nothing lands when the worker died, nor when the job finished
        # just as the backstop fired: either way it runs again.
        landed: List[JobResult] = []
        _drain(executor, {future: [job]}, backstop, landed.append)
        if landed:
            land(dataclasses.replace(landed[0], retries=attempt))
            return
    land(
        attach_flight(
            JobResult(
                index=job.index,
                name=job.name,
                status=JOB_CRASHED,
                error=f"worker died; gave up after {max_retries} resubmission(s)",
                retries=retries,
            ),
            flight_dir,
        )
    )


def run_jobs(
    jobs: Sequence[ScheduleJob],
    machine,
    workers: int = 1,
    timeout: Optional[float] = None,
    max_retries: int = 2,
    backoff: float = 0.1,
    observe: bool = False,
    progress=None,  # Optional[Callable[[ProgressEvent], None]]
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
) -> Tuple[List[JobResult], PoolStats]:
    """Run ``jobs``; return their results in submission order and what
    the pool did.

    ``job.machine`` (when set) overrides the batch-default ``machine``.
    One worker runs the jobs in this process.  More run them in rounds
    on one chunked pool: a round's jobs go out in
    ``ceil(n / (workers × CHUNKS_PER_WORKER))``-job chunks, and the
    jobs a broken round left without a result re-run one at a time on
    one-worker pools.  ``timeout`` is each job's wall-clock budget
    (None: unlimited), ``max_retries`` the crash re-runs one job gets,
    the first ``backoff`` seconds after the crash and doubling after
    that.  ``observe`` and ``flight_events`` are :func:`execute_job`'s,
    and ``progress`` receives each job's lifecycle events.
    """
    started = time.perf_counter()
    workers = max(1, workers)
    stats = PoolStats(
        workers=workers,
        jobs=len(jobs),
        backend="serial" if workers == 1 else "chunked",
        fallback_serial=workers == 1,
    )
    results: Dict[int, JobResult] = {}

    def land(result: JobResult) -> None:
        results[result.index] = result
        if progress is not None:
            progress(result_event(result))

    def run_here(batch: Sequence[ScheduleJob]) -> None:
        # The flight ring still attaches to timeouts and raises, but
        # nothing spills on a fatal signal: the spill handler's exit
        # would end this process.
        for job in batch:
            _emit_job(progress, KIND_STARTED, job)
            land(
                execute_job(
                    job, machine, timeout, observe=observe, flight_events=flight_events
                )
            )

    # Even one job goes to a worker when there are workers: only there
    # can its SIGALRM budget bind when the caller is not a main thread.
    if workers == 1:
        run_here(jobs)
    elif jobs:
        table, refs = _machine_table(jobs, machine)
        machines_blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        # Chunk payloads reference machines by digest only; strip the
        # per-job machine so it is never pickled twice.
        entries = {
            job.index: (dataclasses.replace(job, machine=None), ref)
            for job, ref in zip(jobs, refs)
        }
        pending: List[ScheduleJob] = list(jobs)
        # Fatal-signal spill area: a worker that dies mid-job writes its
        # flight ring here for the crash verdict to attach.  It is made
        # once a pool has started, so a batch that never reaches a
        # worker makes none.
        flight_dir: Optional[str] = None
        try:
            while pending:
                chunks = _partition(pending, workers)
                executor = _start_pool(min(workers, len(chunks)), machines_blob)
                if executor is None:
                    stats.fallback_serial = True
                    run_here(pending)
                    break
                if flight_dir is None and flight_events > 0:
                    flight_dir = tempfile.mkdtemp(prefix="repro-flight-")
                worker_args = (timeout, observe, flight_dir, flight_events)
                stats.chunks += len(chunks)
                futures = {}
                for chunk in chunks:
                    future = executor.submit(
                        _chunk_worker,
                        [entries[job.index] for job in chunk],
                        *worker_args,
                    )
                    futures[future] = chunk
                    for job in chunk:
                        _emit_job(progress, KIND_STARTED, job)
                backstop = None
                if timeout is not None and timeout > 0:
                    longest = max(len(chunk) for chunk in chunks)
                    waves = math.ceil(len(chunks) / workers)
                    backstop = (
                        waves * (longest * timeout + BACKSTOP_GRACE) + BACKSTOP_GRACE
                    )
                broken = _drain(executor, futures, backstop, land)
                pending = [job for job in jobs if job.index not in results]
                if pending and broken:
                    # Chunk granularity is lost on a crash: re-run the
                    # survivors one at a time, so one assassin cannot take
                    # its chunkmates down with it a second time.
                    stats.rebuilds += 1
                    for job in pending:
                        _emit_job(progress, KIND_QUARANTINED, job)
                        _rerun_alone(
                            job, entries[job.index], machine, machines_blob,
                            worker_args, max_retries, backoff, stats, land,
                        )
                    pending = []
        finally:
            if flight_dir is not None:
                shutil.rmtree(flight_dir, ignore_errors=True)

    stats.wall_seconds = time.perf_counter() - started
    ordered = order_results(list(results.values()))
    _tally(stats, ordered)
    return ordered, stats
