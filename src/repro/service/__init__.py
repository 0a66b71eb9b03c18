"""Batch scheduling service: pluggable backends + multi-backend cache.

The scheduler itself is a pure function from ``(loop, machine,
algorithm, options)`` to a schedule, which makes it an ideal service
workload: requests are independent, results are deterministic, and the
same configuration is rescheduled over and over by figures, tables and
regression runs.  This package turns :func:`repro.experiments.runner.
measure_loop` into exactly that service:

- :mod:`repro.service.keys` — canonical, ``PYTHONHASHSEED``-independent
  serialization of a scheduling request into a stable SHA-256 cache key
  (programs, options, and whole machine descriptions);
- :mod:`repro.service.cache` — the :class:`CacheBackend` protocol with
  two content-addressed stores (fan-out directory, single-file sqlite
  in WAL mode), plus one garbage collector written against the
  protocol;
- :mod:`repro.service.jobs` — job/result records with an explicit
  status (``ok | failed | timeout | crashed | cached``), optional
  per-job machines for heterogeneous sweeps, and deterministic result
  ordering;
- :mod:`repro.service.pool` — shared pool machinery: in-worker
  wall-clock budgets, crash quarantine with bounded retry, graceful
  degradation to in-process serial execution, observability spooling;
- :mod:`repro.service.backends` — the :class:`ExecutionBackend`
  strategies: serial in-process, and the chunked process pool that
  keeps deserialized machines resident in workers;
- :mod:`repro.service.spool` — per-job observability spool files
  merged in submission order, so ``--trace``/``--explain`` cross
  process boundaries deterministically;
- :mod:`repro.service.batch` — the batch front end
  (``python -m repro batch``) tying the above together.
"""

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
    SQLiteCache,
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
from repro.service.spool import SpoolMergeStats, merge_spools, write_spool
from repro.service.batch import BatchReport, batch_main, run_batch

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
    "SQLiteCache",
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
    "SpoolMergeStats",
    "merge_spools",
    "write_spool",
    "BatchReport",
    "batch_main",
    "run_batch",
]
