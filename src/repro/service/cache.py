"""Content-addressed result caches behind one ``CacheBackend`` protocol.

Two storage backends share one key schema, one JSON payload envelope
and one eviction policy:

``DirectoryCache``
    One JSON blob per result at ``<root>/<key[:2]>/<key>.json``
    (two-level fan-out keeps directories small on big corpora).  Writes
    are atomic — the blob lands in a same-directory temp file and is
    ``os.replace``d into place — so a crashed or parallel writer can
    never leave a half-written entry behind a valid name.

``SQLiteCache``
    A single-file sqlite database in WAL mode (readers never block the
    writer and vice versa), same key schema and payload envelope.  One
    file instead of thousands makes the cache trivially shareable —
    copy it between CI runs, mount it read-mostly, ship it as an
    artifact.  :meth:`SQLiteCache.import_directory` migrates
    directory-cache entries in bulk, preserving their timestamps.

Reads on both backends are corruption-tolerant: any unreadable,
unparsable, schema-mismatched or field-mismatched entry is treated as a
miss and the caller recomputes (and overwrites) it.  A cache is
therefore purely an accelerator; it can be deleted, truncated or
corrupted at any time without changing results.

Both backends also expose :meth:`CacheBackend.entries` /
:meth:`CacheBackend.remove`, which is all :func:`collect_garbage`
needs — eviction (``batch --gc``) is written once against the protocol
and works identically for directories and sqlite files.
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
    created_unix: float
    #: Last read time.  SQLite records it exactly (updated on every
    #: hit); directory caches approximate it with the file mtime, which
    #: equals creation time until the entry is rewritten.
    accessed_unix: float = 0.0

    def __post_init__(self):
        if not self.accessed_unix:
            self.accessed_unix = self.created_unix


class CacheBackend:
    """Storage protocol: get/put for the batch path, entries/remove for GC."""

    stats: CacheStats

    def get(self, key: str) -> Optional[LoopMetrics]:
        raise NotImplementedError

    def put(self, key: str, metrics: LoopMetrics) -> bool:
        raise NotImplementedError

    def entries(self) -> Iterator[CacheEntry]:
        raise NotImplementedError

    def remove(self, key: str) -> bool:
        raise NotImplementedError

    def close(self) -> None:
        """Release any held resources (no-op for directory caches)."""

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
                    accessed_unix=stat.st_mtime,
                )

    def remove(self, key: str) -> bool:
        path = self.path_for(key)
        try:
            os.unlink(path)
        except FileNotFoundError:
            return False
        except OSError:
            return False
        # Opportunistically drop an emptied fan-out directory.
        try:
            os.rmdir(os.path.dirname(path))
        except OSError:
            pass
        return True


class SQLiteCache(CacheBackend):
    """Single-file sqlite result cache (WAL mode, shared across runs)."""

    def __init__(self, path: str, threadsafe: bool = False):
        import sqlite3

        self.path = path
        self.stats = CacheStats()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        # Autocommit (isolation_level=None) keeps puts single-statement
        # atomic without long write transactions; WAL lets concurrent
        # CI runs read while one writes.  ``threadsafe=True`` lets one
        # connection be shared across threads — the caller must then
        # serialize access itself (the server wraps the backend in a
        # lock; autocommit keeps each statement atomic regardless).
        self._conn = sqlite3.connect(
            path,
            timeout=30.0,
            isolation_level=None,
            check_same_thread=not threadsafe,
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            " key TEXT PRIMARY KEY,"
            " payload TEXT NOT NULL,"
            " size_bytes INTEGER NOT NULL,"
            " created_unix REAL NOT NULL,"
            " accessed_unix REAL)"
        )
        # Databases written before LRU support lack the column; add it
        # in place (NULL rows fall back to created_unix on read).
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(results)")
        }
        if "accessed_unix" not in columns:
            self._conn.execute(
                "ALTER TABLE results ADD COLUMN accessed_unix REAL"
            )

    def describe(self) -> str:
        return f"sqlite:{self.path}"

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:  # pragma: no cover - close is best-effort
            pass

    def get(self, key: str) -> Optional[LoopMetrics]:
        import sqlite3

        try:
            row = self._conn.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        if row is None:
            self.stats.misses += 1
            return None
        try:
            metrics = payload_to_metrics(json.loads(row[0]))
        except (ValueError, TypeError):
            self.stats.misses += 1
            self.stats.corrupt += 1
            return None
        # Record the read so --gc-policy lru can keep hot entries; a
        # failed touch (read-only mount, concurrent vacuum) must not
        # turn the hit into anything else.
        try:
            self._conn.execute(
                "UPDATE results SET accessed_unix = ? WHERE key = ?",
                (time.time(), key),
            )
        except sqlite3.Error:
            pass
        self.stats.hits += 1
        return metrics

    def put(self, key: str, metrics: LoopMetrics, created_unix: Optional[float] = None) -> bool:
        import sqlite3

        payload = canonical_dumps(metrics_to_payload(key, metrics))
        stamp = time.time() if created_unix is None else created_unix
        try:
            self._conn.execute(
                "INSERT OR REPLACE INTO results"
                " (key, payload, size_bytes, created_unix, accessed_unix)"
                " VALUES (?, ?, ?, ?, ?)",
                (
                    key,
                    payload,
                    len(payload.encode("utf-8")),
                    stamp,
                    stamp,
                ),
            )
        except sqlite3.Error:
            self.stats.write_errors += 1
            return False
        self.stats.writes += 1
        return True

    def entries(self) -> Iterator[CacheEntry]:
        import sqlite3

        try:
            rows = self._conn.execute(
                "SELECT key, size_bytes, created_unix,"
                " COALESCE(accessed_unix, created_unix)"
                " FROM results ORDER BY key"
            ).fetchall()
        except sqlite3.Error:
            return
        for key, size_bytes, created_unix, accessed_unix in rows:
            yield CacheEntry(
                key=key,
                size_bytes=size_bytes,
                created_unix=created_unix,
                accessed_unix=accessed_unix,
            )

    def remove(self, key: str) -> bool:
        import sqlite3

        try:
            cursor = self._conn.execute(
                "DELETE FROM results WHERE key = ?", (key,)
            )
        except sqlite3.Error:
            return False
        return cursor.rowcount > 0

    def import_directory(self, root: str) -> int:
        """Bulk-import a :class:`DirectoryCache`'s entries.

        Each blob is strictly validated before insertion (a corrupt
        directory entry is skipped, not propagated) and keeps its file
        mtime as ``created_unix`` so age-based GC stays meaningful.
        Existing sqlite entries win over imported ones.  Returns the
        number of entries imported.
        """
        source = DirectoryCache(root)
        imported = 0
        for entry in source.entries():
            metrics = source.get(entry.key)
            if metrics is None:
                continue
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE key = ?", (entry.key,)
            ).fetchone()
            if row is not None:
                continue
            if self.put(entry.key, metrics, created_unix=entry.created_unix):
                imported += 1
        return imported


def open_cache(
    cache_dir: Optional[str] = None,
    cache_db: Optional[str] = None,
    cache_url: Optional[str] = None,
    cache_fallback_dir: Optional[str] = None,
    auth_token: Optional[str] = None,
) -> Optional[CacheBackend]:
    """Pick a backend from the CLI-style trio of location options.

    ``cache_url`` selects the HTTP backend (:mod:`repro.server`'s
    shared warm cache); ``cache_fallback_dir`` then names the local
    directory cache the client degrades to when the server is
    unreachable (None = degrade to recompute).  The three locations are
    mutually exclusive; ``auth_token`` only applies to ``cache_url``.
    """
    locations = [x for x in (cache_dir, cache_db, cache_url) if x is not None]
    if len(locations) > 1:
        raise ValueError(
            "pass at most one of cache_dir, cache_db and cache_url"
        )
    if cache_url is not None:
        from repro.server.httpcache import HTTPCache

        fallback = (
            DirectoryCache(cache_fallback_dir) if cache_fallback_dir else None
        )
        return HTTPCache(cache_url, fallback=fallback, auth_token=auth_token)
    if cache_db is not None:
        return SQLiteCache(cache_db)
    if cache_dir is not None:
        return DirectoryCache(cache_dir)
    return None


# ----------------------------------------------------------------------
# Garbage collection (batch --gc): one policy, every backend
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


#: Eviction orders: which per-entry timestamp drives aging and sorting.
GC_POLICIES = ("oldest", "lru")


def collect_garbage(
    backend: CacheBackend,
    max_bytes: Optional[int] = None,
    max_age_seconds: Optional[float] = None,
    now: Optional[float] = None,
    policy: str = "oldest",
) -> GCReport:
    """Evict entries until the cache fits its bounds.

    ``policy`` picks the timestamp that orders eviction (and ages
    entries against ``max_age_seconds``): ``"oldest"`` uses creation
    time, ``"lru"`` uses last access — sqlite backends record reads
    exactly, directory caches approximate access with file mtime.
    Either way the least-valuable entries go first, so a size bound
    keeps the youngest (or most recently used) entries: an entry is
    evicted when it is older than ``max_age_seconds``, or while the
    total size still exceeds ``max_bytes``.  With neither bound set,
    nothing is evicted — the report is a dry inventory.  Works against
    any :class:`CacheBackend`; eviction failures are counted, never
    raised.
    """
    if policy not in GC_POLICIES:
        raise ValueError(
            f"unknown gc policy {policy!r}; pick from {', '.join(GC_POLICIES)}"
        )
    now = time.time() if now is None else now
    stamp = (
        (lambda e: e.accessed_unix)
        if policy == "lru"
        else (lambda e: e.created_unix)
    )
    entries = sorted(backend.entries(), key=lambda e: (stamp(e), e.key))
    report = GCReport(examined=len(entries))
    total = sum(entry.size_bytes for entry in entries)
    report.bytes_before = total
    for entry in entries:
        expired = (
            max_age_seconds is not None and now - stamp(entry) > max_age_seconds
        )
        over_budget = max_bytes is not None and total > max_bytes
        if not (expired or over_budget):
            continue
        if backend.remove(entry.key):
            report.removed += 1
            total -= entry.size_bytes
        else:
            report.errors += 1
    report.bytes_after = total
    return report
