"""Batch scheduling service: pluggable backends + a content-addressed cache.

The scheduler itself is a pure function from ``(loop, machine,
algorithm, options)`` to a schedule, which makes it an ideal service
workload: requests are independent, results are deterministic, and the
same configuration is rescheduled over and over by figures, tables and
regression runs.  This package turns :func:`repro.experiments.runner.
measure_loop` into exactly that service:

- :mod:`repro.service.keys` — canonical, ``PYTHONHASHSEED``-independent
  serialization of a scheduling request into a stable SHA-256 cache key
  (programs, options, and whole machine descriptions);
- :mod:`repro.service.cache` — the :class:`CacheBackend` protocol, the
  content-addressed fan-out :class:`DirectoryCache` that is the one
  local store, and its oldest-first garbage collector;
- :mod:`repro.service.jobs` — job/result records with an explicit
  status (``ok | failed | timeout | crashed | cached``), optional
  per-job machines for heterogeneous sweeps, and deterministic result
  ordering; a job's metrics, flight-recorder dump and observations all
  return in its :class:`JobResult`;
- :mod:`repro.service.pool` — shared pool machinery: in-worker
  wall-clock budgets, crash quarantine with bounded retry, graceful
  degradation to in-process serial execution, per-job observation;
- :mod:`repro.service.backends` — the :class:`ExecutionBackend`
  strategies: serial in-process, and the chunked process pool that
  keeps deserialized machines resident in workers;
- :mod:`repro.service.batch` — :func:`run_batch`, the batch front end
  tying the above together;
- :mod:`repro.service.batch_cli` — its command line
  (``python -m repro batch``).

Importing the package loads everything :func:`run_batch` runs and
nothing more: the command line loads on first use of
:func:`batch_main` (see :mod:`repro._deferred`).
"""

from repro._deferred import deferred_exports
from repro.service.backends import (
    BACKEND_NAMES,
    ChunkedProcessBackend,
    ExecutionBackend,
    SerialBackend,
    resolve_backend,
)
from repro.service.cache import (
    CacheBackend,
    CacheEntry,
    CacheStats,
    DirectoryCache,
    GCReport,
    collect_garbage,
    open_cache,
)
from repro.service.jobs import (
    JOB_CACHED,
    JOB_CRASHED,
    JOB_FAILED,
    JOB_OK,
    JOB_STATUSES,
    JOB_TIMEOUT,
    JobResult,
    ScheduleJob,
    make_jobs,
    order_results,
)
from repro.service.keys import (
    KEY_SCHEMA_VERSION,
    cache_key,
    canonical_machine,
    canonical_options,
    canonical_program,
    canonical_request,
    machine_digest,
)
from repro.service.pool import PoolStats
from repro.service.batch import BatchReport, run_batch

__getattr__ = deferred_exports(globals(), {"repro.service.batch_cli": ("batch_main",)})

__all__ = [
    "BACKEND_NAMES",
    "ChunkedProcessBackend",
    "ExecutionBackend",
    "SerialBackend",
    "resolve_backend",
    "CacheBackend",
    "CacheEntry",
    "CacheStats",
    "DirectoryCache",
    "GCReport",
    "collect_garbage",
    "open_cache",
    "JOB_CACHED",
    "JOB_CRASHED",
    "JOB_FAILED",
    "JOB_OK",
    "JOB_STATUSES",
    "JOB_TIMEOUT",
    "JobResult",
    "ScheduleJob",
    "make_jobs",
    "order_results",
    "KEY_SCHEMA_VERSION",
    "cache_key",
    "canonical_machine",
    "canonical_options",
    "canonical_program",
    "canonical_request",
    "machine_digest",
    "PoolStats",
    "BatchReport",
    "batch_main",
    "run_batch",
]
