"""Cross-process observability spools for the execution backends.

An :class:`~repro.obs.observer.Observer`'s tracer, metrics registry and
profiler are in-process objects; a worker process cannot emit into the
parent's instances.  Instead, whenever the batch's observer records
anything (any one of the three, a metrics registry alone included),
every job writes one JSONL *spool file* — its trace events, a
full-fidelity metrics dump, and a profiler snapshot — and the parent
merges the spools back into the observer in **submission order** after
the pool drains.  The merged stream is therefore deterministic:
per-loop event content and sequence numbers are identical whether the
batch ran with one job or many (only wall-clock timestamps differ),
which is the contract the ``--trace``-parity tests and CI assert.

Spool file layout (``<spool_dir>/job-<index>.jsonl``)::

    {"type": "spool", "schema": ..., "version": 1, "job": 3, "loop": "..."}
    {"type": "event", "kind": "place", "oid": 4, "cycle": 7, ...}
    ...
    {"type": "metrics", "dump": {...}}     # MetricsRegistry.dump()
    {"type": "profile", "snapshot": {...}} # Profiler.snapshot()

Every backend (including the in-process serial one) goes through the
same write/merge path, so "observability at jobs=1" and "observability
at jobs=N" are one code path, not two that can drift.  A spool that is
missing or unreadable is *reported* — a ``service.trace_spool.*``
counter plus a one-line log warning — never silently dropped; that is
the fix for the pre-refactor behavior where ``run_corpus(jobs>1)``
discarded tracer/profiler hooks without a word.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.trace import TraceEvent, event_from_dict

logger = logging.getLogger("repro.service")

SPOOL_SCHEMA = "repro.service.spool"
SPOOL_SCHEMA_VERSION = 1


class SpoolError(ValueError):
    """A spool file exists but cannot be trusted (merge counts corrupt)."""


def spool_path(spool_dir: str, index: int) -> str:
    return os.path.join(spool_dir, f"job-{index:06d}.jsonl")


def write_spool(
    spool_dir: str,
    index: int,
    loop: str,
    events: Sequence[TraceEvent],
    metrics_dump: Optional[dict] = None,
    profile_snapshot: Optional[dict] = None,
) -> bool:
    """Write one job's observability record.  Best-effort: a spool that
    cannot be written degrades to a reported gap at merge time, it never
    fails the job."""
    lines = [
        json.dumps(
            {
                "type": "spool",
                "schema": SPOOL_SCHEMA,
                "version": SPOOL_SCHEMA_VERSION,
                "job": index,
                "loop": loop,
            },
            sort_keys=True,
        )
    ]
    for event in events:
        lines.append(json.dumps({"type": "event", **event.to_dict()}, sort_keys=True))
    if metrics_dump is not None:
        lines.append(json.dumps({"type": "metrics", "dump": metrics_dump}, sort_keys=True))
    if profile_snapshot is not None:
        lines.append(
            json.dumps({"type": "profile", "snapshot": profile_snapshot}, sort_keys=True)
        )
    try:
        with open(spool_path(spool_dir, index), "w") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError:
        return False
    return True


@dataclasses.dataclass
class SpoolRecord:
    """One job's spool, decoded back into typed objects."""

    job: int
    loop: str
    events: List[TraceEvent]
    metrics_dump: Optional[dict] = None
    profile_snapshot: Optional[dict] = None


def read_spool(spool_dir: str, index: int) -> SpoolRecord:
    """Decode one spool file.

    Raises ``FileNotFoundError`` when absent and :class:`SpoolError` on
    any structural problem (truncation, bad JSON, wrong schema) — the
    merge step converts those into counters, not crashes.
    """
    path = spool_path(spool_dir, index)
    with open(path) as handle:
        raw_lines = [line for line in handle.read().splitlines() if line.strip()]
    if not raw_lines:
        raise SpoolError(f"{path}: empty spool")
    try:
        records = [json.loads(line) for line in raw_lines]
    except json.JSONDecodeError as error:
        raise SpoolError(f"{path}: {error}") from error
    header = records[0]
    if (
        not isinstance(header, dict)
        or header.get("type") != "spool"
        or header.get("schema") != SPOOL_SCHEMA
        or header.get("version") != SPOOL_SCHEMA_VERSION
    ):
        raise SpoolError(f"{path}: bad spool header")
    record = SpoolRecord(
        job=int(header.get("job", index)),
        loop=str(header.get("loop", "")),
        events=[],
    )
    try:
        for entry in records[1:]:
            kind = entry.get("type")
            if kind == "event":
                payload = {k: v for k, v in entry.items() if k != "type"}
                record.events.append(event_from_dict(payload))
            elif kind == "metrics":
                record.metrics_dump = entry["dump"]
            elif kind == "profile":
                record.profile_snapshot = entry["snapshot"]
            else:
                raise SpoolError(f"{path}: unknown record type {kind!r}")
    except (KeyError, TypeError, ValueError) as error:
        raise SpoolError(f"{path}: {error}") from error
    return record


@dataclasses.dataclass
class SpoolMergeStats:
    """What the parent-side merge found."""

    merged: int = 0  # jobs whose spool was read and folded in
    events: int = 0  # trace events forwarded
    missing: int = 0  # ok jobs with no spool file (degraded observability)
    corrupt: int = 0  # spools present but undecodable

    @property
    def degraded(self) -> bool:
        return bool(self.missing or self.corrupt)


def merge_spools(
    spool_dir: str,
    results: Sequence,  # JobResults, already in submission order
    observer: Optional[Observer] = None,
) -> Tuple[List[dict], SpoolMergeStats]:
    """Fold every computed job's spool into the observer's sinks.

    Returns ``(trace_records, stats)`` where ``trace_records`` is the
    merged JSONL-ready stream: each event dict annotated with its
    ``loop`` name and ``job`` index, in submission order, sequence
    numbers job-local.  Cached results are skipped (a cache hit replays
    no scheduler decisions); a missing spool only counts as a gap for
    jobs that *completed* in a worker (a crashed worker writes nothing,
    which the job status already reports).
    """
    from repro.service.jobs import JOB_CACHED, JOB_OK

    observer = observer or NULL_OBSERVER
    stats = SpoolMergeStats()
    trace_records: List[dict] = []
    for result in results:
        if result.status == JOB_CACHED:
            continue
        try:
            record = read_spool(spool_dir, result.index)
        except FileNotFoundError:
            if result.status == JOB_OK:
                stats.missing += 1
            continue
        except SpoolError:
            stats.corrupt += 1
            continue
        stats.merged += 1
        stats.events += len(record.events)
        for event in record.events:
            # Tag before re-emitting: a CollectingTracer re-stamps seq,
            # and the records keep the job-local one.
            trace_records.append(
                {**event.to_dict(), "loop": record.loop, "job": record.job}
            )
            if observer.trace is not None:
                observer.trace.emit(event)
        if observer.metrics is not None and record.metrics_dump is not None:
            observer.metrics.merge_dump(record.metrics_dump)
        if observer.prof.enabled and record.profile_snapshot is not None:
            observer.prof.merge_snapshot(record.profile_snapshot)
    return trace_records, stats


def record_spool_stats(metrics, stats: SpoolMergeStats) -> None:
    """Mirror merge stats into ``service.trace_spool.*`` counters and
    emit the one-line (never silent) summary log."""
    if metrics is not None:
        metrics.counter("service.trace_spool.merged").inc(stats.merged)
        metrics.counter("service.trace_spool.events").inc(stats.events)
        metrics.counter("service.trace_spool.missing").inc(stats.missing)
        metrics.counter("service.trace_spool.corrupt").inc(stats.corrupt)
    if stats.degraded:
        logger.warning(
            "trace spool gap: %d missing, %d corrupt (merged %d job spool(s))",
            stats.missing,
            stats.corrupt,
            stats.merged,
        )
    elif stats.merged:
        logger.info(
            "merged %d trace spool(s), %d event(s)", stats.merged, stats.events
        )


def write_trace_records(records: Sequence[dict], path: str) -> None:
    """Write merged trace records as JSONL (one event dict per line)."""
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
