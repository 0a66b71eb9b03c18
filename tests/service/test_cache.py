"""On-disk result cache: atomicity, corruption tolerance (repro.service.cache)."""

import dataclasses
import json
import os

from repro.experiments import measure_loop
from repro.experiments.metrics import LoopMetrics
from repro.machine import cydra5
from repro.service.cache import (
    RESULT_SCHEMA_VERSION,
    DirectoryCache,
    metrics_to_payload,
    payload_to_metrics,
)
from repro.workloads.livermore import kernel3_inner_product

MACHINE = cydra5()
KEY = "ab" + "0" * 62


def _metrics() -> LoopMetrics:
    return measure_loop(kernel3_inner_product(), MACHINE)


def _failed_metrics() -> LoopMetrics:
    metrics = _metrics()
    return dataclasses.replace(
        metrics,
        success=False,
        span=None,
        stages=None,
        max_live=None,
        min_avg=None,
        icr=None,
        failure_reason="attempts_exhausted",
    )


def test_roundtrip(tmp_path):
    cache = DirectoryCache(str(tmp_path))
    metrics = _metrics()
    assert cache.get(KEY) is None  # cold
    assert cache.put(KEY, metrics)
    assert cache.get(KEY) == metrics
    assert cache.stats.hits == 1 and cache.stats.misses == 1
    assert cache.stats.writes == 1


def test_roundtrip_preserves_failure_sentinels(tmp_path):
    cache = DirectoryCache(str(tmp_path))
    failed = _failed_metrics()
    cache.put(KEY, failed)
    loaded = cache.get(KEY)
    assert loaded == failed
    assert loaded.max_live is None and loaded.failure_reason == "attempts_exhausted"


def test_layout_two_level_fanout_and_no_temp_leftovers(tmp_path):
    cache = DirectoryCache(str(tmp_path))
    cache.put(KEY, _metrics())
    expected = tmp_path / KEY[:2] / f"{KEY}.json"
    assert expected.exists()
    leftovers = [
        name
        for _, _, names in os.walk(tmp_path)
        for name in names
        if name.endswith(".tmp")
    ]
    assert not leftovers


def test_corrupt_entry_is_a_miss_then_recomputable(tmp_path):
    cache = DirectoryCache(str(tmp_path))
    metrics = _metrics()
    cache.put(KEY, metrics)
    cache.path_for(KEY)
    with open(cache.path_for(KEY), "w") as handle:
        handle.write('{"schema": "repro.service.result", "metri')  # truncated
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1
    # The degraded path recomputes and overwrites the bad entry.
    cache.put(KEY, metrics)
    assert cache.get(KEY) == metrics


def test_garbage_bytes_are_a_miss(tmp_path):
    cache = DirectoryCache(str(tmp_path))
    path = cache.path_for(KEY)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(b"\x00\xff\x13garbage")
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1


def test_schema_version_mismatch_is_a_miss(tmp_path):
    cache = DirectoryCache(str(tmp_path))
    payload = metrics_to_payload(KEY, _metrics())
    payload["schema_version"] = RESULT_SCHEMA_VERSION + 1
    path = cache.path_for(KEY)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert cache.get(KEY) is None


def test_field_drift_is_a_miss(tmp_path):
    """An entry written by a revision with different LoopMetrics fields
    must not be trusted."""
    cache = DirectoryCache(str(tmp_path))
    payload = metrics_to_payload(KEY, _metrics())
    payload["metrics"]["bogus_future_field"] = 1
    path = cache.path_for(KEY)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert cache.get(KEY) is None
    assert cache.stats.corrupt == 1


def test_payload_decode_is_strict():
    metrics = _metrics()
    payload = metrics_to_payload(KEY, metrics)
    assert payload_to_metrics(payload) == metrics
    del payload["metrics"]["name"]
    try:
        payload_to_metrics(payload)
    except ValueError as error:
        assert "name" in str(error)
    else:
        raise AssertionError("missing field must not decode")


def test_unwritable_root_degrades_gracefully(tmp_path):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    cache = DirectoryCache(str(blocked))
    assert cache.put(KEY, _metrics()) is False
    assert cache.stats.write_errors == 1
    assert cache.get(KEY) is None  # still just a miss, no raise
