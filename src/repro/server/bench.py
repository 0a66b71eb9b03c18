"""The ``server`` bench scenario: the daemon under concurrent clients.

Boots a real :class:`repro.server.app.ScheduleServer` (in-process, on
an ephemeral port, with a fresh directory cache) and drives it with
``clients`` concurrent threads, each a :class:`repro.server.httpcache
.ServerClient`, over the paper corpus rendered back to loop-DSL
sources:

- a **cold** sweep populates the cache and measures miss-path latency;
- **warm** sweeps (``repeats`` of them) measure hit-path latency and
  throughput, and assert the protocol's central invariant — every warm
  response is byte-identical to its cold counterpart;
- a **conditional** sweep replays the warm requests with
  ``If-None-Match`` set to the response ETags and counts the 304s.

Wall-clock numbers are ``kind="time"`` (reported, not gated); the
cache-hit ratio, byte-identity flag, 304 ratio and request-error count
are deterministic and gate ``--fail-on-regress``.  The payload lands
in ``BENCH_server.json`` and flows into the bench history store like
every other scenario.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.experiments.metrics import LoopMetrics


def _render_sources(corpus_size: int) -> List[str]:
    from repro.frontend.printer import render_loop
    from repro.workloads import paper_corpus

    return [render_loop(program) for program in paper_corpus(corpus_size)]


def _sweep(
    url: str,
    sources: List[str],
    clients: int,
    headers_for: Optional[Dict[int, dict]] = None,
    machine_wire: Optional[dict] = None,
) -> List[Tuple[int, int, dict, bytes, float]]:
    """Issue one POST /v1/schedule per source across client threads.

    ``machine_wire`` (a registry machine's ``Machine.wire`` object)
    rides along in every request body, exercising the server's machine
    negotiation.  Returns ``(index, status, headers, body, seconds)``
    per request, ordered by index.  A transport failure records
    status 0.
    """
    from repro.server.httpcache import ServerClient, ServerUnreachable

    results: List[Tuple[int, int, dict, bytes, float]] = []
    lock = threading.Lock()

    def worker(worker_index: int) -> None:
        client = ServerClient(url, retries=0)
        for index in range(worker_index, len(sources), clients):
            extra = (headers_for or {}).get(index)
            body_payload = {"source": sources[index]}
            if machine_wire is not None:
                body_payload["machine"] = machine_wire
            started = time.perf_counter()
            try:
                status, headers, body = client.schedule(
                    body_payload, headers=extra
                )
            except ServerUnreachable:
                status, headers, body = 0, {}, b""
            seconds = time.perf_counter() - started
            with lock:
                results.append((index, status, headers, body, seconds))

    threads = [
        threading.Thread(target=worker, args=(i,), name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(results)


def _latency_quantiles_ms(samples: List[float]) -> Dict[str, float]:
    from repro.obs.metrics import Histogram

    histogram = Histogram()
    for seconds in samples:
        histogram.record(seconds)
    return {
        name: seconds * 1e3 for name, seconds in histogram.quantiles().items()
    }


def run_server_bench(
    scenario,
    corpus_size: int = 60,
    repeats: int = 3,
    warmup: int = 1,
    profile: bool = True,
    memory: bool = False,
    machine=None,
    clients: int = 4,
) -> dict:
    """Benchmark the daemon; matches the bench runner signature."""
    from repro.obs.bench import (
        BENCH_SCHEMA,
        corpus_aggregates,
        metric,
        sample_stats,
        wrap_payload,
    )
    from repro.server.app import ScheduleServer  # noqa: F401 - import check
    from repro.server.app import ServerConfig, running_server

    machine_wire = None
    if machine is not None:
        machine_wire = machine.wire
        if machine_wire is None:
            raise ValueError(
                "server bench needs a registry machine (Machine.wire is "
                "None); build it via repro.machine.build_machine"
            )
    sources = _render_sources(corpus_size)
    repeats = max(1, repeats)
    cache_root = tempfile.mkdtemp(prefix="repro-bench-server-")
    errors = 0
    byte_identical = True
    cache_hits = 0
    warm_requests = 0
    not_modified = 0
    warm_walls: List[float] = []
    warm_latencies: List[float] = []
    try:
        config = ServerConfig(host="127.0.0.1", port=0, cache_dir=cache_root)
        with running_server(config) as server:
            url = server.url

            started = time.perf_counter()
            cold = _sweep(url, sources, clients, machine_wire=machine_wire)
            cold_wall = time.perf_counter() - started
            cold_bodies = {}
            cold_latencies = []
            for index, status, _, body, seconds in cold:
                cold_latencies.append(seconds)
                if status != 200:
                    errors += 1
                else:
                    cold_bodies[index] = body

            for _ in range(repeats):
                started = time.perf_counter()
                warm = _sweep(url, sources, clients, machine_wire=machine_wire)
                warm_walls.append(time.perf_counter() - started)
                for index, status, headers, body, seconds in warm:
                    warm_requests += 1
                    warm_latencies.append(seconds)
                    if status != 200:
                        errors += 1
                        continue
                    if headers.get("X-Repro-Cache") == "hit":
                        cache_hits += 1
                    if body != cold_bodies.get(index):
                        byte_identical = False

            # Conditional sweep: replay with If-None-Match = the ETag
            # each warm response carried; every one should be a 304.
            etags = {
                index: {"If-None-Match": headers["ETag"]}
                for index, status, headers, _, _ in warm
                if status == 200 and "ETag" in headers
            }
            for _, status, _, _, _ in _sweep(
                url, sources, clients, etags, machine_wire=machine_wire
            ):
                if status == 304:
                    not_modified += 1
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    loop_metrics = []
    for index in sorted(cold_bodies):
        record = json.loads(cold_bodies[index])["metrics"]
        loop_metrics.append(LoopMetrics(**record))

    warm_stats = sample_stats(warm_walls)
    warm_wall = warm_stats["median"]
    cold_quantiles = _latency_quantiles_ms(cold_latencies)
    warm_quantiles = _latency_quantiles_ms(warm_latencies)
    hit_ratio = cache_hits / warm_requests if warm_requests else 0.0
    metrics = {
        "wall_time_s": metric(
            warm_wall, "s", direction="lower", kind="time",
            iqr=warm_stats["iqr"],
        ),
        "cold_wall_s": metric(cold_wall, "s", direction="lower", kind="time"),
        "cold_latency_p50_ms": metric(
            cold_quantiles["p50"], "ms", direction="lower", kind="time"
        ),
        "cold_latency_p99_ms": metric(
            cold_quantiles["p99"], "ms", direction="lower", kind="time"
        ),
        "warm_latency_p50_ms": metric(
            warm_quantiles["p50"], "ms", direction="lower", kind="time"
        ),
        "warm_latency_p99_ms": metric(
            warm_quantiles["p99"], "ms", direction="lower", kind="time"
        ),
        "requests_per_s": metric(
            len(sources) / warm_wall if warm_wall else 0.0,
            "req/s", direction="higher", kind="time",
        ),
        "cache_hit_ratio": metric(
            hit_ratio, "fraction", direction="higher"
        ),
        "warm_byte_identical": metric(
            1.0 if byte_identical else 0.0, "bool", direction="higher"
        ),
        "conditional_304_ratio": metric(
            not_modified / len(sources) if sources else 0.0,
            "fraction", direction="higher",
        ),
        "request_errors": metric(errors, "errors", direction="lower"),
    }
    metrics.update(corpus_aggregates(loop_metrics))
    return wrap_payload(
        BENCH_SCHEMA,
        {
            "scenario": scenario.name,
            "description": scenario.description,
            "algorithm": scenario.algorithm,
            "machine": getattr(machine, "name", None),
            "corpus_size": len(sources),
            "repeats": repeats,
            "warmup": warmup,
            "clients": clients,
            "warm_wall_samples_s": warm_walls,
            "metrics": metrics,
            "profile": None,
        },
    )
