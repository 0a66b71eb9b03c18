"""HTTPCache: the CacheBackend protocol over the wire, with degradation."""

import pytest

from repro.experiments import measure_loop
from repro.frontend.parser import parse_loop
from repro.machine import cydra5
from repro.server.app import ServerConfig, running_server
from repro.server.httpcache import HTTPCache
from repro.service.batch import run_batch
from repro.service.cache import DirectoryCache, open_cache
from repro.service.keys import cache_key
from repro.workloads import paper_corpus

MACHINE = cydra5()

SOURCE = """\
loop tiny
array x 60
do i = 2, 41
    x(i) = x(i-1) + 1.0
end do
"""


def _entry():
    program = parse_loop(SOURCE)
    key = cache_key(program, MACHINE, "slack", None)
    return key, measure_loop(program, MACHINE)


#: An address nothing listens on (port 1 is privileged and unused).
DEAD_URL = "http://127.0.0.1:1"


def _dead_cache(**kwargs) -> HTTPCache:
    return HTTPCache(DEAD_URL, timeout=0.5, retries=0, **kwargs)


# ----------------------------------------------------------------------
# Against a live server
# ----------------------------------------------------------------------
def test_put_then_get_roundtrip(tmp_path):
    key, metrics = _entry()
    with running_server(ServerConfig(port=0, cache_dir=str(tmp_path))) as live:
        cache = HTTPCache(live.url)
        assert cache.get(key) is None
        assert cache.stats.misses == 1
        assert cache.put(key, metrics)
        got = cache.get(key)
        assert got == metrics
        assert cache.stats.hits == 1 and cache.stats.writes == 1
        assert cache.describe().startswith(f"http:{live.url}")


def test_remote_hit_warms_the_fallback(tmp_path):
    key, metrics = _entry()
    fallback = DirectoryCache(str(tmp_path / "fb"))
    with running_server(
        ServerConfig(port=0, cache_dir=str(tmp_path / "srv"))
    ) as live:
        HTTPCache(live.url).put(key, metrics)
        cache = HTTPCache(live.url, fallback=fallback)
        assert cache.get(key) == metrics
    # The hit wrote through: the local copy survives the server.
    assert fallback.get(key) == metrics


def test_fallback_hit_rewarms_the_server(tmp_path):
    key, metrics = _entry()
    fallback = DirectoryCache(str(tmp_path / "fb"))
    fallback.put(key, metrics)
    with running_server(
        ServerConfig(port=0, cache_dir=str(tmp_path / "srv"))
    ) as live:
        cache = HTTPCache(live.url, fallback=fallback)
        assert cache.get(key) == metrics  # server miss, fallback hit
        # ... which was pushed back up to the shared cache.
        fresh = HTTPCache(live.url)
        assert fresh.get(key) == metrics


# ----------------------------------------------------------------------
# Degradation: unreachable server
# ----------------------------------------------------------------------
def test_unreachable_server_degrades_to_fallback(tmp_path):
    key, metrics = _entry()
    cache = _dead_cache(fallback=DirectoryCache(str(tmp_path)))
    assert cache.put(key, metrics)  # lands in the fallback
    assert cache.get(key) == metrics
    assert cache.degraded >= 1
    assert cache.stats.hits == 1 and cache.stats.writes == 1


def test_unreachable_server_without_fallback_is_a_miss():
    key, metrics = _entry()
    cache = _dead_cache()
    assert cache.get(key) is None
    assert cache.put(key, metrics) is False
    assert cache.stats.misses == 1 and cache.stats.write_errors == 1


def test_circuit_breaker_skips_the_dead_server(tmp_path):
    key, metrics = _entry()
    cache = _dead_cache(fallback=DirectoryCache(str(tmp_path)), cooldown=60.0)
    cache.put(key, metrics)  # trips the breaker
    tripped = cache.degraded
    for _ in range(5):
        assert cache.get(key) == metrics
    # The breaker held: no further connection attempts, no new trips.
    assert cache.degraded == tripped


def test_bad_token_trips_the_breaker(tmp_path):
    key, metrics = _entry()
    with running_server(
        ServerConfig(port=0, cache_dir=str(tmp_path), auth_token="sesame")
    ) as live:
        cache = HTTPCache(live.url, auth_token="wrong", cooldown=60.0)
        assert cache.get(key) is None
        assert cache.degraded == 1


# ----------------------------------------------------------------------
# Protocol odds and ends
# ----------------------------------------------------------------------
def test_open_cache_selects_http_backend(tmp_path):
    cache = open_cache(
        cache_url=DEAD_URL, cache_fallback_dir=str(tmp_path), auth_token="t"
    )
    assert isinstance(cache, HTTPCache)
    assert cache.fallback is not None
    assert cache.client.auth_token == "t"
    with pytest.raises(ValueError):
        open_cache(cache_dir="a", cache_url=DEAD_URL)


# ----------------------------------------------------------------------
# run_batch --cache-url integration
# ----------------------------------------------------------------------
def test_run_batch_shares_a_warm_server_cache(tmp_path):
    programs = paper_corpus(4)
    with running_server(
        ServerConfig(port=0, cache_dir=str(tmp_path / "srv"))
    ) as live:
        cold = run_batch(
            programs, MACHINE, cache_url=live.url,
            cache_fallback_dir=str(tmp_path / "fb"),
        )
        assert cold.ok
        assert cold.cache.misses == 4 and cold.cache.writes == 4
        warm = run_batch(
            programs, MACHINE, cache_url=live.url,
            cache_fallback_dir=str(tmp_path / "fb2"),
        )
        assert warm.ok
        assert warm.cache.hits == 4 and warm.cache.misses == 0
        assert warm.counts() == {"cached": 4}
        # Zero result divergence from a local, uncached run.
        local = run_batch(programs, MACHINE)
        assert warm.loop_metrics == cold.loop_metrics
        names = [m.name for m in local.loop_metrics]
        assert [m.name for m in warm.loop_metrics] == names


def test_run_batch_caller_owned_cache_stays_open(tmp_path):
    key, metrics = _entry()
    cache = DirectoryCache(str(tmp_path))
    report = run_batch(paper_corpus(2), MACHINE, cache=cache)
    assert report.ok and report.cache is cache.stats
    # The batch ran on the caller's backend, which stays usable.
    assert cache.put(key, metrics) and cache.get(key) == metrics
