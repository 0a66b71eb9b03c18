"""Job and result records for the batch scheduling service.

A :class:`ScheduleJob` is one scheduling request; a :class:`JobResult`
is its outcome with an explicit status:

- ``ok``      — the worker produced a :class:`LoopMetrics` (note that a
  loop the scheduler *failed to pipeline* is still ``ok``: failure to
  find a schedule is a deterministic domain result, carried in
  ``metrics.success`` / ``metrics.failure_reason``, not a job fault);
- ``cached``  — the result came from the content-addressed cache;
- ``failed``  — the job raised (parse error, bad IR, internal bug);
- ``timeout`` — the job exceeded its wall-clock budget;
- ``crashed`` — the worker process died (segfault, ``os._exit``, OOM
  kill) and retries were exhausted.

Result order is deterministic: :func:`order_results` sorts by the job's
submission index, so a parallel batch returns metrics in exactly the
order the serial path would.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.metrics import LoopMetrics

JOB_OK = "ok"
JOB_FAILED = "failed"
JOB_TIMEOUT = "timeout"
JOB_CRASHED = "crashed"
JOB_CACHED = "cached"

JOB_STATUSES = frozenset({JOB_OK, JOB_FAILED, JOB_TIMEOUT, JOB_CRASHED, JOB_CACHED})


@dataclasses.dataclass
class ScheduleJob:
    """One scheduling request.

    ``machine`` is the job's own machine description; ``None`` means
    "use the batch default".  Per-job machines are what make
    heterogeneous sweeps (the same corpus under several load latencies)
    one batch instead of one batch per machine — the cache key already
    covers the machine, so distinct machines get distinct entries.

    ``fault`` is the service's built-in fault injection used by tests,
    CI and manual resilience drills: ``"crash"`` kills the worker with
    a synthetic ``SIGSEGV`` (exercising the flight recorder's
    fatal-signal spill), ``"exit"`` dies with ``os._exit`` and
    bypasses every handler, ``"hang:N"`` makes it sleep N seconds
    (tripping the per-job timeout), ``"stuck:N"`` sleeps N seconds with
    ``SIGALRM`` blocked, as a hang in native code would, so only the
    pool-side backstop can end it, and ``"raise"`` makes it raise.
    Production callers leave it None.
    """

    index: int
    name: str
    program: object  # DoLoop | LoopBody (picklable either way)
    algorithm: str = "slack"
    options: Optional[object] = None  # SchedulerOptions
    machine: Optional[object] = None  # Machine; None = batch default
    key: Optional[str] = None  # content-addressed cache key, if computed
    fault: Optional[str] = None


@dataclasses.dataclass
class JobResult:
    """Outcome of one job."""

    index: int
    name: str
    status: str
    metrics: Optional[LoopMetrics] = None
    error: Optional[str] = None
    seconds: float = 0.0  # worker-side wall time (0.0 for cached)
    retries: int = 0  # crash-recovery resubmissions this job survived
    #: Flight-recorder dump (oldest-first event dicts) attached to
    #: failure records only: the last scheduler decisions in flight
    #: when the job timed out, raised, or killed its worker.
    flight: Optional[List[dict]] = None
    #: ``(trace events, metrics dump)`` of a job that ran under an
    #: observing batch, whatever its status; None when the batch
    #: observed nothing or no worker returned (cached, crashed,
    #: backstop timeout).  ``run_batch`` folds these into its observer
    #: and then sets this to None, so its report holds each event once.
    observed: Optional[Tuple[List[dict], dict]] = None

    def __post_init__(self) -> None:
        if self.status not in JOB_STATUSES:
            raise ValueError(
                f"unknown job status {self.status!r}; pick from {sorted(JOB_STATUSES)}"
            )

    @property
    def ok(self) -> bool:
        """True when the job produced usable metrics."""
        return self.status in (JOB_OK, JOB_CACHED)


def make_jobs(
    programs: Sequence[object],
    algorithm: str = "slack",
    options=None,
    faults: Optional[Dict[int, str]] = None,
    machines: Optional[Sequence[object]] = None,
) -> List[ScheduleJob]:
    """Wrap programs (DoLoop or LoopBody) into indexed jobs.

    ``machines``, when given, must be one machine (or None) per program;
    entries override the batch default machine for that job only.
    """
    faults = faults or {}
    if machines is not None and len(machines) != len(programs):
        raise ValueError(
            f"machines ({len(machines)}) must match programs ({len(programs)})"
        )
    return [
        ScheduleJob(
            index=index,
            name=getattr(program, "name", f"loop{index}"),
            program=program,
            algorithm=algorithm,
            options=options,
            machine=machines[index] if machines is not None else None,
            fault=faults.get(index),
        )
        for index, program in enumerate(programs)
    ]


def order_results(results: Sequence[JobResult]) -> List[JobResult]:
    """Deterministic result order: by submission index.

    Raises ``ValueError`` on duplicate indices — a batch must produce
    exactly one result per job, whatever path (cache, pool, serial
    fallback, crash handling) it took.
    """
    ordered = sorted(results, key=lambda result: result.index)
    for previous, current in zip(ordered, ordered[1:]):
        if previous.index == current.index:
            raise ValueError(f"duplicate result for job index {current.index}")
    return ordered
