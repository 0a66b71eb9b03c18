"""The directory cache's backend selection, GC and ``batch --gc`` CLI."""

import os

import pytest

from repro.experiments import measure_loop
from repro.machine import cydra5
from repro.service.cache import DirectoryCache, collect_garbage, open_cache
from repro.workloads.livermore import kernel3_inner_product

MACHINE = cydra5()


def _metrics():
    return measure_loop(kernel3_inner_product(), MACHINE)


def _key(i: int) -> str:
    return f"{i:02x}" + "0" * 62


def _make(tmp_path):
    return DirectoryCache(str(tmp_path / "cache"))


def _backdate(cache, key, when: float) -> None:
    os.utime(cache.path_for(key), (when, when))


def test_open_cache_selects_backend(tmp_path):
    assert open_cache() is None
    directory = open_cache(cache_dir=str(tmp_path / "d"))
    assert isinstance(directory, DirectoryCache)


# ----------------------------------------------------------------------
# Garbage collection: oldest first
# ----------------------------------------------------------------------
def test_gc_no_bounds_is_inventory_only(tmp_path):
    cache = _make(tmp_path)
    for i in range(3):
        cache.put(_key(i), _metrics())
    report = collect_garbage(cache)
    assert report.examined == 3 and report.removed == 0
    assert report.bytes_after == report.bytes_before > 0
    assert "kept 3" in report.summary()


def test_gc_age_bound_evicts_only_expired(tmp_path):
    cache = _make(tmp_path)
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


def test_gc_size_bound_keeps_youngest(tmp_path):
    cache = _make(tmp_path)
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


def test_gc_both_bounds_compose(tmp_path):
    cache = _make(tmp_path)
    metrics = _metrics()
    now = 1_000_000.0
    for i in range(4):
        cache.put(_key(i), metrics)
        _backdate(cache, _key(i), now - 100.0 + i)
    report = collect_garbage(cache, max_bytes=0, max_age_seconds=1e9, now=now)
    assert report.removed == 4 and report.bytes_after == 0
    assert list(cache.entries()) == []


# ----------------------------------------------------------------------
# CLI: batch --gc and the cache location flags
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


def test_cli_gc_age_bound(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    cache = str(tmp_path / "cache")
    assert batch_main(["--corpus", "3", "--cache-dir", cache]) == 0
    capsys.readouterr()
    assert batch_main(["--gc", "--cache-dir", cache, "--max-cache-age", "1h"]) == 0
    out = capsys.readouterr().out
    assert "removed 0" in out  # nothing is an hour old yet
    assert batch_main(["--gc", "--cache-dir", cache, "--max-cache-age", "0s"]) == 0
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


def test_cli_cache_dir_and_url_conflict(tmp_path, capsys):
    from repro.service.batch_cli import batch_main

    assert batch_main(
        [
            "--corpus", "2",
            "--cache-dir", str(tmp_path / "d"),
            "--cache-url", "http://127.0.0.1:1",
        ]
    ) == 2
    assert "at most one" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--cache-url", "http://127.0.0.1:1", "--cache-fallback-dir", "fb"],
        ["--no-cache"],
    ],
    ids=["cache-url", "no-cache"],
)
def test_cli_gc_evicts_only_a_named_directory(tmp_path, capsys, monkeypatch, flags):
    """``--gc`` with a cache URL or ``--no-cache`` names no directory:
    it exits 2 before reading any entry, and the default cache keeps
    every entry."""
    from repro.service.batch_cli import DEFAULT_CACHE_DIR, batch_main

    monkeypatch.chdir(tmp_path)
    assert batch_main(["--corpus", "3", "--no-progress"]) == 0
    default = DirectoryCache(DEFAULT_CACHE_DIR)
    before = sorted(entry.key for entry in default.entries())
    assert len(before) == 3
    capsys.readouterr()
    assert batch_main(["--gc", *flags, "--max-cache-bytes", "1"]) == 2
    captured = capsys.readouterr()
    assert f"--gc takes a --cache-dir, not {flags[0]}" in captured.err
    assert captured.out == ""
    assert sorted(entry.key for entry in default.entries()) == before


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
