"""CacheBackend protocol: sqlite store, cross-backend migration, GC."""

import json
import os

import pytest

from repro.experiments import measure_loop
from repro.machine import cydra5
from repro.service.cache import (
    DirectoryCache,
    SQLiteCache,
    collect_garbage,
    open_cache,
)
from repro.workloads import paper_corpus
from repro.workloads.livermore import kernel3_inner_product

MACHINE = cydra5()


def _metrics():
    return measure_loop(kernel3_inner_product(), MACHINE)


def _key(i: int) -> str:
    return f"{i:02x}" + "0" * 62


def _make(kind, tmp_path):
    if kind == "dir":
        return DirectoryCache(str(tmp_path / "cache"))
    return SQLiteCache(str(tmp_path / "cache.sqlite"))


def _backdate(cache, key, when: float) -> None:
    if isinstance(cache, DirectoryCache):
        os.utime(cache.path_for(key), (when, when))
    else:
        cache._conn.execute(
            "UPDATE results SET created_unix = ? WHERE key = ?", (when, key)
        )


# ----------------------------------------------------------------------
# SQLiteCache basics
# ----------------------------------------------------------------------
def test_sqlite_roundtrip_and_wal(tmp_path):
    path = str(tmp_path / "cache.sqlite")
    cache = SQLiteCache(path)
    metrics = _metrics()
    assert cache.get(_key(1)) is None and cache.stats.misses == 1
    assert cache.put(_key(1), metrics)
    assert cache.get(_key(1)) == metrics
    assert cache.stats.hits == 1 and cache.stats.writes == 1
    assert cache.describe() == f"sqlite:{path}"
    mode = cache._conn.execute("PRAGMA journal_mode").fetchone()[0]
    assert mode == "wal"
    cache.close()
    # One file (plus WAL sidecars), reopenable, entries survive.
    reopened = SQLiteCache(path)
    assert reopened.get(_key(1)) == metrics
    reopened.close()


def test_sqlite_corrupt_payload_is_a_miss(tmp_path):
    cache = SQLiteCache(str(tmp_path / "c.sqlite"))
    cache.put(_key(1), _metrics())
    cache._conn.execute(
        "UPDATE results SET payload = '{not json' WHERE key = ?", (_key(1),)
    )
    assert cache.get(_key(1)) is None
    assert cache.stats.corrupt == 1
    cache.close()


def test_sqlite_entries_and_remove(tmp_path):
    cache = SQLiteCache(str(tmp_path / "c.sqlite"))
    metrics = _metrics()
    for i in range(3):
        cache.put(_key(i), metrics)
    entries = list(cache.entries())
    assert sorted(e.key for e in entries) == [_key(0), _key(1), _key(2)]
    assert all(e.size_bytes > 0 and e.created_unix > 0 for e in entries)
    assert cache.remove(_key(1))
    assert not cache.remove(_key(1))  # already gone
    assert sorted(e.key for e in cache.entries()) == [_key(0), _key(2)]
    cache.close()


# ----------------------------------------------------------------------
# Cross-backend: same payload envelope, migratable
# ----------------------------------------------------------------------
def test_directory_entry_readable_after_sqlite_import(tmp_path):
    """The round-trip property the ISSUE names: dir -> sqlite -> equal."""
    directory = DirectoryCache(str(tmp_path / "dir"))
    programs = paper_corpus(3)
    stored = {}
    for i, program in enumerate(programs):
        metrics = measure_loop(program, MACHINE)
        directory.put(_key(i), metrics)
        stored[_key(i)] = metrics

    sqlite = SQLiteCache(str(tmp_path / "c.sqlite"))
    assert sqlite.import_directory(directory.root) == 3
    for key, metrics in stored.items():
        assert sqlite.get(key) == metrics
    # Timestamps carried over from the file mtimes.
    dir_times = {e.key: e.created_unix for e in directory.entries()}
    sql_times = {e.key: e.created_unix for e in sqlite.entries()}
    assert dir_times == pytest.approx(sql_times)
    sqlite.close()


def test_import_skips_corrupt_and_existing(tmp_path):
    directory = DirectoryCache(str(tmp_path / "dir"))
    directory.put(_key(1), _metrics())
    directory.put(_key(2), _metrics())
    with open(directory.path_for(_key(1)), "w") as handle:
        handle.write("{broken")
    sqlite = SQLiteCache(str(tmp_path / "c.sqlite"))
    newer = _metrics()
    sqlite.put(_key(2), newer)
    assert sqlite.import_directory(directory.root) == 0  # 1 corrupt, 1 existing
    assert sqlite.get(_key(2)) == newer  # existing sqlite row won
    sqlite.close()


def test_open_cache_selects_backend(tmp_path):
    assert open_cache() is None
    directory = open_cache(cache_dir=str(tmp_path / "d"))
    assert isinstance(directory, DirectoryCache)
    sqlite = open_cache(cache_db=str(tmp_path / "c.sqlite"))
    assert isinstance(sqlite, SQLiteCache)
    sqlite.close()
    with pytest.raises(ValueError, match="at most one"):
        open_cache(cache_dir="a", cache_db="b")


def test_run_batch_sqlite_warm_hits(tmp_path):
    from repro.service.batch import run_batch

    db = str(tmp_path / "results.sqlite")
    programs = paper_corpus(4)
    cold = run_batch(programs, MACHINE, cache_db=db, jobs=2)
    assert cold.cache.misses == 4 and cold.cache.writes == 4
    assert cold.cache_location == f"sqlite:{db}"
    warm = run_batch(programs, MACHINE, cache_db=db, jobs=2)
    assert warm.cache.hits == 4 and warm.counts() == {"cached": 4}
    assert warm.loop_metrics == cold.loop_metrics


# ----------------------------------------------------------------------
# Garbage collection: one policy, both backends
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["dir", "sqlite"])
def test_gc_no_bounds_is_inventory_only(kind, tmp_path):
    cache = _make(kind, tmp_path)
    for i in range(3):
        cache.put(_key(i), _metrics())
    report = collect_garbage(cache)
    assert report.examined == 3 and report.removed == 0
    assert report.bytes_after == report.bytes_before > 0
    assert "kept 3" in report.summary()
    cache.close()


@pytest.mark.parametrize("kind", ["dir", "sqlite"])
def test_gc_age_bound_evicts_only_expired(kind, tmp_path):
    cache = _make(kind, tmp_path)
    metrics = _metrics()
    for i in range(4):
        cache.put(_key(i), metrics)
    now = 1_000_000.0
    for i in range(4):
        _backdate(cache, _key(i), now - (1000.0 if i < 2 else 10.0))
    report = collect_garbage(cache, max_age_seconds=100.0, now=now)
    assert report.removed == 2
    kept = sorted(e.key for e in cache.entries())
    assert kept == [_key(2), _key(3)]
    cache.close()


@pytest.mark.parametrize("kind", ["dir", "sqlite"])
def test_gc_size_bound_keeps_youngest(kind, tmp_path):
    cache = _make(kind, tmp_path)
    metrics = _metrics()
    now = 1_000_000.0
    for i in range(4):
        cache.put(_key(i), metrics)
        _backdate(cache, _key(i), now - 100.0 + i)  # key 0 oldest
    entries = {e.key: e.size_bytes for e in cache.entries()}
    total = sum(entries.values())
    budget = total - entries[_key(0)]  # exactly one eviction needed
    report = collect_garbage(cache, max_bytes=budget, now=now)
    assert report.removed == 1
    assert sorted(e.key for e in cache.entries()) == [_key(1), _key(2), _key(3)]
    assert report.bytes_after <= budget
    cache.close()


@pytest.mark.parametrize("kind", ["dir", "sqlite"])
def test_gc_both_bounds_compose(kind, tmp_path):
    cache = _make(kind, tmp_path)
    metrics = _metrics()
    now = 1_000_000.0
    for i in range(4):
        cache.put(_key(i), metrics)
        _backdate(cache, _key(i), now - 100.0 + i)
    report = collect_garbage(cache, max_bytes=0, max_age_seconds=1e9, now=now)
    assert report.removed == 4 and report.bytes_after == 0
    assert list(cache.entries()) == []
    cache.close()


# ----------------------------------------------------------------------
# CLI: batch --gc and --cache-db
# ----------------------------------------------------------------------
def test_cli_gc_size_bound(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    cache = str(tmp_path / "cache")
    assert batch_main(["--corpus", "4", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert batch_main(
        ["--gc", "--cache-dir", cache, "--max-cache-bytes", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "gc: examined 4 entries" in out and "removed 4" in out
    assert batch_main(["--gc", "--cache-dir", cache]) == 0
    assert "examined 0 entries" in capsys.readouterr().out


def test_cli_gc_age_bound_sqlite(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    db = str(tmp_path / "cache.sqlite")
    assert batch_main(["--corpus", "3", "--cache-db", db]) == 0
    capsys.readouterr()
    assert batch_main(["--gc", "--cache-db", db, "--max-cache-age", "1h"]) == 0
    out = capsys.readouterr().out
    assert "removed 0" in out  # nothing is an hour old yet
    assert batch_main(["--gc", "--cache-db", db, "--max-cache-age", "0s"]) == 0
    assert "removed 3" in capsys.readouterr().out


def test_cli_gc_missing_cache_exits_2(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    assert batch_main(
        ["--gc", "--cache-dir", str(tmp_path / "nope")]
    ) == 2
    assert "no cache at" in capsys.readouterr().err


def test_cli_gc_bad_bounds_exit_2(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    cache = str(tmp_path)
    assert batch_main(
        ["--gc", "--cache-dir", cache, "--max-cache-bytes", "five"]
    ) == 2
    assert "cannot parse size" in capsys.readouterr().err
    assert batch_main(
        ["--gc", "--cache-dir", cache, "--max-cache-age", "yesterday"]
    ) == 2
    assert "cannot parse age" in capsys.readouterr().err


def test_cli_cache_dir_and_db_conflict(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    assert batch_main(
        [
            "--corpus", "2",
            "--cache-dir", str(tmp_path / "d"),
            "--cache-db", str(tmp_path / "c.sqlite"),
        ]
    ) == 2
    assert "at most one" in capsys.readouterr().err


def test_parse_size_and_age_suffixes():
    from repro.service.batch_cli import parse_age, parse_size

    assert parse_size("1048576") == 1 << 20
    assert parse_size("500M") == 500 * (1 << 20)
    assert parse_size("2G") == 2 * (1 << 30)
    assert parse_size("1KB") == 1024
    assert parse_age("3600") == 3600.0
    assert parse_age("12h") == 12 * 3600.0
    assert parse_age("7d") == 7 * 86400.0
    assert parse_age("30m") == 1800.0
