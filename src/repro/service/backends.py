"""Execution backends for the batch scheduling service.

An :class:`ExecutionBackend` turns a list of :class:`ScheduleJob`\\ s
into submission-ordered :class:`JobResult`\\ s plus a
:class:`PoolStats`.  Two strategies ship:

``SerialBackend``
    In-process loop.  No isolation, no pickling; the baseline the
    process pool must match byte-for-byte (modulo wall-clock fields).

``ChunkedProcessBackend``
    The process pool.  Jobs are submitted in per-worker *chunks* and
    machines are shipped once per worker through the pool initializer,
    keyed by :func:`repro.service.keys.machine_digest`.  A worker
    deserializes each distinct machine exactly once and every chunk
    payload carries only digests, so the dominant per-job pickling cost
    becomes O(distinct machines × workers) instead of O(jobs).  Chunking
    also amortizes executor future overhead.  Heterogeneous batches
    (per-job machines) ride the same table: jobs referencing the same
    machine share the worker-resident copy regardless of interleaving.

Both speak the same fault-tolerance protocol (in-worker ``SIGALRM``
budgets, pool-side backstop, crash quarantine with bounded backoff —
see :mod:`repro.service.pool`) and the same observability protocol
(with ``observe``, each result carries its job's observations in
``JobResult.observed``; per-job progress events, see
:mod:`repro.obs.progress`), so results, merged traces, merged metrics
and per-job progress sequences are identical across backends and chunk
sizes; only wall-clock (and cross-job interleaving of the progress
stream) changes.  Only the chunked backend's workers spill flight
rings on a fatal signal, into a directory it makes once its first pool
has started and removes before it returns.

Progress contract: every backend emits ``started`` when it dispatches a
job and exactly one terminal ``finished``/``failed`` event when that
job's result materializes — including synthesized backstop-timeout
results — plus ``quarantined`` before any crash-recovery resubmission.
``progress`` is a plain callable (``ProgressTracker.emit``); ``None``
(the default) skips every emission.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
import pickle
import shutil
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.progress import (
    KIND_QUARANTINED,
    KIND_STARTED,
    job_event,
    result_event,
)
from repro.service.jobs import (
    JOB_FAILED,
    JOB_TIMEOUT,
    JobResult,
    ScheduleJob,
    order_results,
)
from repro.service.pool import (
    BACKSTOP_GRACE,
    DEFAULT_FLIGHT_CAPACITY,
    PoolStats,
    _tally,
    execute_job,
    run_quarantined,
)

#: Names accepted by :func:`resolve_backend`.
BACKEND_NAMES = ("auto", "serial", "chunked")

#: Chunked backend: target this many chunks per worker so a slow chunk
#: cannot idle the rest of the pool for long (work stealing granularity).
CHUNKS_PER_WORKER = 4


class ExecutionBackend:
    """Strategy protocol: execute jobs, return ordered results + stats."""

    name: str = "?"

    def run(
        self,
        jobs: Sequence[ScheduleJob],
        machine,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.1,
        observe: bool = False,
        progress=None,  # Optional[Callable[[ProgressEvent], None]]
        flight_events: int = DEFAULT_FLIGHT_CAPACITY,
    ) -> Tuple[List[JobResult], PoolStats]:
        raise NotImplementedError


def _finish(
    stats: PoolStats, results: List[JobResult], started: float
) -> Tuple[List[JobResult], PoolStats]:
    import time

    stats.wall_seconds = time.perf_counter() - started
    ordered = order_results(results)
    _tally(stats, ordered)
    return ordered, stats


def _emit_started(progress, job: ScheduleJob) -> None:
    if progress is not None:
        progress(job_event(KIND_STARTED, job.index, job.name))


def _emit_result(progress, result: JobResult) -> None:
    if progress is not None:
        progress(result_event(result))


def _emit_quarantined(progress, job: ScheduleJob) -> None:
    if progress is not None:
        progress(job_event(KIND_QUARANTINED, job.index, job.name))


def _execute_serially(
    jobs: Sequence[ScheduleJob],
    machine,
    timeout: Optional[float],
    observe: bool,
    progress,
    flight_events: int = DEFAULT_FLIGHT_CAPACITY,
) -> List[JobResult]:
    """The shared in-process path (serial backend + every fallback
    rung): the flight ring still attaches to timeouts and raises, but
    nothing spills on a fatal signal."""
    results = []
    for job in jobs:
        _emit_started(progress, job)
        result = execute_job(
            job, machine, timeout, observe=observe, flight_events=flight_events
        )
        _emit_result(progress, result)
        results.append(result)
    return results


class SerialBackend(ExecutionBackend):
    """In-process execution: the fallback rung and the jobs=1 default."""

    name = "serial"

    def run(
        self,
        jobs: Sequence[ScheduleJob],
        machine,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.1,
        observe: bool = False,
        progress=None,
        flight_events: int = DEFAULT_FLIGHT_CAPACITY,
    ) -> Tuple[List[JobResult], PoolStats]:
        import time

        stats = PoolStats(
            workers=1, jobs=len(jobs), backend=self.name, fallback_serial=True
        )
        started = time.perf_counter()
        results = _execute_serially(
            jobs, machine, timeout, observe, progress, flight_events=flight_events
        )
        return _finish(stats, results, started)


# ----------------------------------------------------------------------
# Chunked backend: worker-resident machines + per-worker job chunks
# ----------------------------------------------------------------------
#: Worker-process-global machine table, installed by the pool
#: initializer.  Keyed by machine digest; populated once per worker.
_WORKER_MACHINES: Dict[str, object] = {}


def _chunk_worker_init(machines_blob: bytes) -> None:
    """Pool initializer: deserialize the machine table once per worker."""
    global _WORKER_MACHINES
    _WORKER_MACHINES = pickle.loads(machines_blob)


def _chunk_worker(
    payload: Tuple[
        List[Tuple[ScheduleJob, str]],
        Optional[float],
        bool,
        Optional[str],
        int,
    ]
) -> List[JobResult]:
    """Run one chunk of (machine-stripped job, machine digest) entries."""
    entries, timeout, observe, flight_dir, flight_events = payload
    results: List[JobResult] = []
    for job, digest in entries:
        resident = _WORKER_MACHINES.get(digest)
        if resident is None:  # pragma: no cover - defensive
            results.append(
                JobResult(
                    index=job.index,
                    name=job.name,
                    status=JOB_FAILED,
                    error=f"worker has no resident machine {digest[:12]}",
                )
            )
            continue
        results.append(
            execute_job(
                job,
                resident,
                timeout,
                observe=observe,
                flight_dir=flight_dir,
                flight_events=flight_events,
            )
        )
    return results


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


class ChunkedProcessBackend(ExecutionBackend):
    """Chunked dispatch with worker-resident, digest-keyed machines."""

    name = "chunked"

    def __init__(self, workers: int, chunk_size: Optional[int] = None):
        self.workers = max(1, workers)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size

    def _partition(self, pending: Sequence[ScheduleJob]) -> List[List[ScheduleJob]]:
        size = self.chunk_size or max(
            1, math.ceil(len(pending) / (self.workers * CHUNKS_PER_WORKER))
        )
        return [list(pending[i : i + size]) for i in range(0, len(pending), size)]

    def run(
        self,
        jobs: Sequence[ScheduleJob],
        machine,
        timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff: float = 0.1,
        observe: bool = False,
        progress=None,
        flight_events: int = DEFAULT_FLIGHT_CAPACITY,
    ) -> Tuple[List[JobResult], PoolStats]:
        import time

        stats = PoolStats(workers=self.workers, jobs=len(jobs), backend=self.name)
        started = time.perf_counter()
        # Even one job goes to a worker: only there can its SIGALRM
        # budget bind when the caller is not a main thread.
        if self.workers <= 1 or not jobs:
            stats.fallback_serial = self.workers <= 1
            results = _execute_serially(
                jobs, machine, timeout, observe, progress, flight_events=flight_events
            )
            return _finish(stats, results, started)

        table, refs = _machine_table(jobs, machine)
        machines_blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
        # Chunk payloads reference machines by digest only; strip the
        # per-job machine so it is never pickled twice.
        stripped = {
            job.index: dataclasses.replace(job, machine=None) for job in jobs
        }
        ref_of = {job.index: ref for job, ref in zip(jobs, refs)}

        results: Dict[int, JobResult] = {}
        pending: List[ScheduleJob] = list(jobs)
        # Fatal-signal spill area: a worker that dies mid-job writes its
        # flight ring here for the quarantine path to attach.  It is made
        # once a pool has started, so a batch that never reaches a worker
        # makes none.
        flight_dir: Optional[str] = None
        try:
            while pending:
                chunks = self._partition(pending)
                try:
                    executor = concurrent.futures.ProcessPoolExecutor(
                        max_workers=min(self.workers, len(chunks)),
                        initializer=_chunk_worker_init,
                        initargs=(machines_blob,),
                    )
                except (OSError, ValueError, RuntimeError):
                    stats.fallback_serial = True
                    for result in _execute_serially(
                        pending, machine, timeout, observe, progress,
                        flight_events=flight_events,
                    ):
                        results[result.index] = result
                    pending = []
                    break
                if flight_dir is None and flight_events > 0:
                    flight_dir = tempfile.mkdtemp(prefix="repro-flight-")

                stats.chunks += len(chunks)
                broken = False
                hung = False
                try:
                    futures = {}
                    for chunk in chunks:
                        entries = [
                            (stripped[job.index], ref_of[job.index]) for job in chunk
                        ]
                        future = executor.submit(
                            _chunk_worker,
                            (
                                entries,
                                timeout,
                                observe,
                                flight_dir,
                                flight_events,
                            ),
                        )
                        for job in chunk:
                            _emit_started(progress, job)
                        futures[future] = chunk
                    backstop = None
                    if timeout is not None and timeout > 0:
                        longest = max(len(chunk) for chunk in chunks)
                        waves = math.ceil(len(chunks) / max(1, self.workers))
                        backstop = (
                            waves * (longest * timeout + BACKSTOP_GRACE)
                            + BACKSTOP_GRACE
                        )
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
                                results[result.index] = result
                                _emit_result(progress, result)
                    except concurrent.futures.TimeoutError:
                        hung = True
                        for future, chunk in futures.items():
                            if future.done() and not future.cancelled():
                                continue  # re-run next round; results are pure
                            for job in chunk:
                                if job.index in results:
                                    continue
                                results[job.index] = JobResult(
                                    index=job.index,
                                    name=job.name,
                                    status=JOB_TIMEOUT,
                                    error="backstop: worker unresponsive past "
                                    "its budget",
                                )
                                _emit_result(progress, results[job.index])
                finally:
                    executor.shutdown(wait=not (broken or hung), cancel_futures=True)

                pending = [job for job in jobs if job.index not in results]
                if pending and broken:
                    # Chunk granularity is lost on a crash: quarantine the
                    # survivors job-by-job so one assassin cannot take its
                    # chunkmates down with it a second time.
                    stats.rebuilds += 1
                    for job in pending:
                        _emit_quarantined(progress, job)
                        results[job.index] = run_quarantined(
                            job, machine, timeout, max_retries, backoff, stats,
                            observe=observe, flight_dir=flight_dir,
                            flight_events=flight_events,
                        )
                        _emit_result(progress, results[job.index])
                    pending = []
        finally:
            if flight_dir is not None:
                shutil.rmtree(flight_dir, ignore_errors=True)

        return _finish(stats, list(results.values()), started)


def resolve_backend(name: str, workers: int = 1) -> ExecutionBackend:
    """Instantiate a backend by name.

    ``auto`` picks :class:`SerialBackend` for one worker and
    :class:`ChunkedProcessBackend` otherwise.
    """
    if name == "serial" or (name == "auto" and workers <= 1):
        return SerialBackend()
    if name in ("auto", "chunked"):
        return ChunkedProcessBackend(workers)
    raise ValueError(
        f"unknown execution backend {name!r}; pick from {', '.join(BACKEND_NAMES)}"
    )
