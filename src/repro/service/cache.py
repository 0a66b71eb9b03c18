"""The content-addressed result cache and its ``CacheBackend`` protocol.

:class:`DirectoryCache` is the one local store: one JSON blob per
result at ``<root>/<key[:2]>/<key>.json`` (two-level fan-out keeps
directories small on big corpora).  Writes are atomic — the blob lands
in a same-directory temp file and is ``os.replace``d into place — so a
crashed or parallel writer can never leave a half-written entry behind
a valid name.  Sharing a cache between machines goes through a ``repro
serve`` daemon (:class:`repro.server.httpcache.HTTPCache`), which
speaks the same ``get``/``put`` protocol over the same payload
envelope.

Reads are corruption-tolerant: any unreadable, unparsable,
schema-mismatched or field-mismatched entry is treated as a miss and
the caller recomputes (and overwrites) it.  A cache is therefore purely
an accelerator; it can be deleted, truncated or corrupted at any time
without changing results.

Eviction (``batch --gc``) is :func:`collect_garbage` over a directory's
:meth:`DirectoryCache.entries`, oldest file first.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from typing import Iterator, Optional

from repro.canonical import canonical_dumps
from repro.experiments.metrics import LoopMetrics

#: Payload envelope identifiers; version bumps invalidate old entries.
RESULT_SCHEMA = "repro.service.result"
RESULT_SCHEMA_VERSION = 1


@dataclasses.dataclass
class CacheStats:
    """Counters for one cache's lifetime in this process."""

    hits: int = 0
    misses: int = 0
    corrupt: int = 0  # entries that existed but could not be trusted
    writes: int = 0
    write_errors: int = 0


def metrics_to_payload(key: str, metrics: LoopMetrics) -> dict:
    """Wrap a LoopMetrics into the on-disk JSON envelope."""
    return {
        "schema": RESULT_SCHEMA,
        "schema_version": RESULT_SCHEMA_VERSION,
        "key": key,
        "metrics": dataclasses.asdict(metrics),
    }


def payload_to_metrics(payload: dict) -> LoopMetrics:
    """Strictly decode an envelope back into a LoopMetrics.

    Raises ``ValueError`` on any mismatch — wrong schema, wrong version,
    or a field set that does not exactly match the current dataclass
    (e.g. an entry written by an older code revision).  Callers treat
    the error as a cache miss.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload is not an object")
    if payload.get("schema") != RESULT_SCHEMA:
        raise ValueError(f"unexpected schema {payload.get('schema')!r}")
    if payload.get("schema_version") != RESULT_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema version {payload.get('schema_version')!r}"
        )
    record = payload.get("metrics")
    if not isinstance(record, dict):
        raise ValueError("missing metrics record")
    expected = {field.name for field in dataclasses.fields(LoopMetrics)}
    found = set(record)
    if found != expected:
        raise ValueError(
            f"metrics fields do not match: missing {sorted(expected - found)}, "
            f"unknown {sorted(found - expected)}"
        )
    return LoopMetrics(**record)


@dataclasses.dataclass
class CacheEntry:
    """One stored result as the garbage collector sees it."""

    key: str
    size_bytes: int
    created_unix: float  # the file's mtime


class CacheBackend:
    """Storage protocol of the batch path: ``get``, ``put``, ``describe``
    and the ``stats`` counters."""

    stats: CacheStats

    def get(self, key: str) -> Optional[LoopMetrics]:
        raise NotImplementedError

    def put(self, key: str, metrics: LoopMetrics) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        """One-word-ish location string for CLI summaries."""
        raise NotImplementedError


class DirectoryCache(CacheBackend):
    """A content-addressed LoopMetrics cache rooted at one directory."""

    def __init__(self, root: str):
        self.root = root
        self.stats = CacheStats()

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def describe(self) -> str:
        return f"dir:{self.root}"

    def get(self, key: str) -> Optional[LoopMetrics]:
        """The cached result for ``key``, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            with open(path) as handle:
                payload = json.load(handle)
            metrics = payload_to_metrics(payload)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, ValueError, TypeError) as _:
            # Unreadable, truncated, hand-edited, or written by an
            # incompatible revision: recompute rather than trust it.
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        self.stats.hits += 1
        return metrics

    def put(self, key: str, metrics: LoopMetrics) -> bool:
        """Atomically store a result.  Best-effort: returns False (and
        counts a write error) instead of raising when the filesystem
        refuses — a cache that cannot be written degrades to recompute,
        it never fails the batch."""
        path = self.path_for(key)
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=f".{key[:8]}.", suffix=".tmp", dir=directory
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(canonical_dumps(metrics_to_payload(key, metrics)))
                    handle.write("\n")
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError:
            self.stats.write_errors += 1
            return False
        self.stats.writes += 1
        return True

    def entries(self) -> Iterator[CacheEntry]:
        """Every stored entry, discovered by walking the fan-out dirs."""
        try:
            fans = sorted(os.listdir(self.root))
        except OSError:
            return
        for fan in fans:
            fan_dir = os.path.join(self.root, fan)
            if not os.path.isdir(fan_dir):
                continue
            try:
                names = sorted(os.listdir(fan_dir))
            except OSError:
                continue
            for name in names:
                if not name.endswith(".json"):
                    continue
                path = os.path.join(fan_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue
                yield CacheEntry(
                    key=name[: -len(".json")],
                    size_bytes=stat.st_size,
                    created_unix=stat.st_mtime,
                )

    def remove(self, key: str) -> bool:
        path = self.path_for(key)
        try:
            os.unlink(path)
        except OSError:
            return False
        # Opportunistically drop an emptied fan-out directory.
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass
        return True


def open_cache(
    cache_dir: Optional[str] = None,
    cache_url: Optional[str] = None,
    cache_fallback_dir: Optional[str] = None,
    auth_token: Optional[str] = None,
) -> Optional[CacheBackend]:
    """Pick a backend from the CLI-style location options.

    ``cache_url`` selects the HTTP backend (:mod:`repro.server`'s
    shared warm cache); ``cache_fallback_dir`` then names the local
    directory cache the client degrades to when the server is
    unreachable (None = degrade to recompute).  The two locations are
    mutually exclusive; ``auth_token`` only applies to ``cache_url``.
    """
    if cache_dir is not None and cache_url is not None:
        raise ValueError("pass at most one of cache_dir and cache_url")
    if cache_url is not None:
        from repro.server.httpcache import HTTPCache

        fallback = (
            DirectoryCache(cache_fallback_dir) if cache_fallback_dir else None
        )
        return HTTPCache(cache_url, fallback=fallback, auth_token=auth_token)
    if cache_dir is not None:
        return DirectoryCache(cache_dir)
    return None


# ----------------------------------------------------------------------
# Garbage collection (batch --gc): oldest entries first
# ----------------------------------------------------------------------
@dataclasses.dataclass
class GCReport:
    """What one eviction pass did."""

    examined: int = 0
    removed: int = 0
    errors: int = 0
    bytes_before: int = 0
    bytes_after: int = 0

    def summary(self) -> str:
        return (
            f"gc: examined {self.examined} entries "
            f"({self.bytes_before / 1e6:.2f} MB), removed {self.removed} "
            f"({(self.bytes_before - self.bytes_after) / 1e6:.2f} MB), "
            f"kept {self.examined - self.removed} "
            f"({self.bytes_after / 1e6:.2f} MB)"
            + (f", {self.errors} error(s)" if self.errors else "")
        )


def collect_garbage(
    cache: DirectoryCache,
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    now: Optional[float] = None,
) -> GCReport:
    """Evict entries until the cache fits its bounds.

    Entries go oldest first by file mtime, so a size bound keeps the
    youngest: an entry is evicted when it is older than
    ``max_age_seconds``, or while the total size still exceeds
    ``max_bytes``.  With neither bound set, nothing is evicted — the
    report is a dry inventory.  Eviction failures are counted, never
    raised.
    """
    now = time.time() if now is None else now
    entries = sorted(cache.entries(), key=lambda e: (e.created_unix, e.key))
    report = GCReport(examined=len(entries))
    total = sum(entry.size_bytes for entry in entries)
    report.bytes_before = total
    for entry in entries:
        expired = (
            max_age_seconds is not None and now - entry.created_unix > max_age_seconds
        )
        over_budget = max_bytes is not None and total > max_bytes
        if not (expired or over_budget):
            continue
        if cache.remove(entry.key):
            report.removed += 1
            total -= entry.size_bytes
        else:
            report.errors += 1
    report.bytes_after = total
    return report
