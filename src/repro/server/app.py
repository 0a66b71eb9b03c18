"""The scheduling daemon: ``python -m repro serve``.

A stdlib-only, long-lived ``ThreadingHTTPServer`` serving the wire
protocol in :mod:`repro.server.protocol`.  Design points:

- **One shared cache, many request threads.**  The server owns a
  single :class:`~repro.service.cache.DirectoryCache` behind a lock
  (:class:`LockedCache`), so every client — and
  the ``/v1/batch`` path, which runs the whole existing
  :func:`repro.service.batch.run_batch` machinery against it — sees
  one warm cache.
- **Deterministic bodies.**  Responses are canonical JSON
  (:mod:`repro.canonical`); a warm ``POST /v1/schedule`` is
  byte-identical to the cold response that populated the cache, and
  the ``ETag`` is the canonical request key, so ``If-None-Match``
  short-circuits repeat requests to a 304 before any scheduling work.
- **Graceful shutdown.**  SIGTERM/SIGINT stop the accept loop, drain
  in-flight request threads (``server_close`` joins them), flush the
  metrics snapshot, and exit 0 — so a supervisor restart never tears a
  request mid-flight.
- **Measured, not asserted.**  Every request lands in a
  :class:`~repro.obs.metrics.MetricsRegistry` (request counters +
  per-route latency histograms with p50/p90/p99), exposed at
  ``GET /metricz`` and load-tested by ``python -m repro bench
  --scenario server``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hmac
import json
import os
import signal
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional
from urllib.parse import urlsplit

from repro.canonical import canonical_bytes, canonical_dump
from repro.obs.metrics import MetricsRegistry
from repro.server import protocol
from repro.service.cache import (
    CacheBackend,
    DirectoryCache,
    metrics_to_payload,
    payload_to_metrics,
)

#: Default TCP port (0x2159 would be too cute; this is "HUFF" on a phone
#: pad, truncated to the registered-port range).
DEFAULT_PORT = 8537

#: Largest request body the daemon will read.
DEFAULT_MAX_BODY_BYTES = 8 * 1024 * 1024

#: Route tags used for metrics; everything else lands in "other".
_ROUTES = (
    "healthz", "metricz", "schedule", "batch", "cache.get", "cache.put",
)


@dataclasses.dataclass
class ServerConfig:
    """Everything ``serve_main`` configures on the daemon."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT  # 0 = ephemeral (the OS picks; see .url)
    cache_dir: Optional[str] = None
    auth_token: Optional[str] = None
    jobs: int = 1  # /v1/batch worker processes
    job_timeout: Optional[float] = None  # /v1/batch per-job budget
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    verbose: bool = False


class LockedCache(CacheBackend):
    """Serialize a CacheBackend's ``get`` and ``put`` for many request
    threads.

    The directory cache is process-safe (atomic renames) but not
    thread-safe: ``CacheStats`` increments race.  One lock around both
    operations keeps the hot path simple; scheduling dominates request
    time, so the serialization is invisible next to it.
    """

    def __init__(self, inner: CacheBackend):
        self.inner = inner
        self._lock = threading.Lock()

    @property
    def stats(self):
        return self.inner.stats

    def get(self, key: str):
        with self._lock:
            return self.inner.get(key)

    def put(self, key: str, metrics) -> bool:
        with self._lock:
            return self.inner.put(key, metrics)

    def describe(self) -> str:
        return self.inner.describe()


class ScheduleServer(ThreadingHTTPServer):
    """The daemon: shared cache + metrics registry + request handler."""

    # ThreadingHTTPServer defaults: daemon request threads (a hung
    # request cannot block process exit) but block_on_close=True, so
    # server_close() joins in-flight threads — the drain guarantee.
    allow_reuse_address = True

    def __init__(self, config: ServerConfig):
        self.config = config
        self.cache = (
            LockedCache(DirectoryCache(config.cache_dir))
            if config.cache_dir is not None
            else None
        )
        self.registry = MetricsRegistry()
        self.registry_lock = threading.Lock()
        self.started_unix = time.time()
        super().__init__((config.host, config.port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    # -- instrumentation ----------------------------------------------
    def observe(self, route: str, status: int, seconds: float) -> None:
        with self.registry_lock:
            self.registry.counter("server.requests.total").inc()
            self.registry.counter(f"server.requests.{route}").inc()
            self.registry.counter(f"server.responses.{status // 100}xx").inc()
            self.registry.histogram(f"server.latency.{route}").record(seconds)

    def metricz_body(self) -> dict:
        with self.registry_lock:
            snapshot = self.registry.snapshot()
        cache_block = None
        if self.cache is not None:
            cache_block = {
                "location": self.cache.describe(),
                **dataclasses.asdict(self.cache.stats),
            }
        return {
            "schema": protocol.METRICZ_SCHEMA,
            "schema_version": protocol.SERVER_PROTOCOL_VERSION,
            "uptime_seconds": time.time() - self.started_unix,
            "cache": cache_block,
            "metrics": snapshot,
        }


class _Handler(BaseHTTPRequestHandler):
    server: ScheduleServer  # narrowed for type checkers
    server_version = "repro-server/1"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.config.verbose:
            super().log_message(format, *args)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        etag: Optional[str] = None,
        cache_state: Optional[str] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if etag is not None:
            self.send_header("ETag", f'"{etag}"')
        if cache_state is not None:
            self.send_header("X-Repro-Cache", cache_state)
        self.end_headers()
        if body:
            self.wfile.write(body)

    def _send_json(self, status: int, payload: dict, **kwargs) -> None:
        self._send_bytes(status, canonical_bytes(payload), **kwargs)

    def _send_error_body(self, status: int, message: str) -> None:
        self._send_json(status, protocol.error_body(status, message))

    def _send_not_modified(self, etag: str) -> None:
        self.send_response(304)
        self.send_header("ETag", f'"{etag}"')
        self.send_header("Content-Length", "0")
        self.end_headers()

    def _etag_matches(self, etag: str) -> bool:
        header = self.headers.get("If-None-Match")
        if not header:
            return False
        candidates = {tag.strip().strip('"') for tag in header.split(",")}
        return "*" in candidates or etag in candidates

    def _authorized(self) -> bool:
        token = self.server.config.auth_token
        if token is None:
            return True
        header = self.headers.get("Authorization", "")
        return hmac.compare_digest(header, f"Bearer {token}")

    def _read_json_body(self) -> dict:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise protocol.ProtocolError(411, "Content-Length required")
        try:
            length = int(length_header)
        except ValueError:
            raise protocol.ProtocolError(400, "bad Content-Length") from None
        if length < 0:
            raise protocol.ProtocolError(400, "bad Content-Length")
        if length > self.server.config.max_body_bytes:
            raise protocol.ProtocolError(
                413,
                f"body exceeds {self.server.config.max_body_bytes} bytes",
            )
        data = self.rfile.read(length)
        if len(data) != length:
            raise protocol.ProtocolError(400, "truncated body")
        try:
            return json.loads(data)
        except (ValueError, UnicodeDecodeError):
            raise protocol.ProtocolError(400, "body is not valid JSON") from None

    # -- routing -------------------------------------------------------
    def _route(self, method: str) -> None:
        path = urlsplit(self.path).path
        route = "other"
        started = time.perf_counter()
        status = 500
        try:
            if path == "/healthz" and method == "GET":
                route = "healthz"
                status = self._handle_healthz()
                return
            if not self._authorized():
                status = 401
                self._send_error_body(401, "missing or bad bearer token")
                return
            if path == "/metricz" and method == "GET":
                route = "metricz"
                status = self._handle_metricz()
            elif path == "/v1/schedule" and method == "POST":
                route = "schedule"
                status = self._handle_schedule()
            elif path == "/v1/batch" and method == "POST":
                route = "batch"
                status = self._handle_batch()
            elif path.startswith("/v1/cache/"):
                key = path[len("/v1/cache/"):]
                if method == "GET":
                    route = "cache.get"
                    status = self._handle_cache_get(key)
                elif method == "PUT":
                    route = "cache.put"
                    status = self._handle_cache_put(key)
                else:
                    status = 405
                    self._send_error_body(405, f"{method} not allowed here")
            elif path in ("/healthz", "/metricz", "/v1/schedule", "/v1/batch"):
                status = 405
                self._send_error_body(405, f"{method} not allowed on {path}")
            else:
                status = 404
                self._send_error_body(404, f"no route {method} {path}")
        except protocol.ProtocolError as error:
            status = error.status
            self._send_error_body(error.status, error.message)
        except BrokenPipeError:  # client went away mid-response
            status = 499
        except Exception as error:  # noqa: BLE001 - the daemon must survive
            status = 500
            try:
                self._send_error_body(500, f"internal error: {error}")
            except BrokenPipeError:
                pass
        finally:
            self.server.observe(route, status, time.perf_counter() - started)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._route("PUT")

    # -- endpoints -----------------------------------------------------
    def _handle_healthz(self) -> int:
        self._send_json(
            200,
            {
                "schema": protocol.HEALTH_SCHEMA,
                "schema_version": protocol.SERVER_PROTOCOL_VERSION,
                "status": "ok",
                # Machine negotiation: which targets (and parameters)
                # this server's registry will accept on /v1/schedule.
                "machines": protocol.machine_catalog(),
            },
        )
        return 200

    def _handle_metricz(self) -> int:
        self._send_json(200, self.server.metricz_body())
        return 200

    def _handle_schedule(self) -> int:
        from repro.experiments.runner import measure_loop
        from repro.service.keys import cache_key

        request = protocol.parse_schedule_request(self._read_json_body())
        key = cache_key(
            request.program, request.machine, request.algorithm, request.options
        )
        if self._etag_matches(key):
            self._send_not_modified(key)
            return 304
        cache = self.server.cache if request.use_cache else None
        metrics = cache.get(key) if cache is not None else None
        if metrics is not None:
            cache_state = "hit"
        else:
            metrics = measure_loop(
                request.program,
                request.machine,
                algorithm=request.algorithm,
                options=request.options,
            )
            if cache is not None:
                cache.put(key, metrics)
                cache_state = "miss"
            else:
                cache_state = "bypass"
        body = protocol.schedule_response_body(
            key, metrics, protocol.schedule_extras(request)
        )
        self._send_json(200, body, etag=key, cache_state=cache_state)
        return 200

    def _handle_batch(self) -> int:
        from repro.service.batch import run_batch

        request = protocol.parse_batch_request(self._read_json_body())
        config = self.server.config
        cache = self.server.cache if request.use_cache else None
        before = (
            dataclasses.replace(cache.stats) if cache is not None else None
        )
        report = run_batch(
            request.programs,
            machine=request.machine,
            algorithm=request.algorithm,
            options=request.options,
            jobs=config.jobs,
            timeout=config.job_timeout,
            cache=cache,
        )
        cache_delta = None
        if cache is not None and before is not None:
            after = cache.stats
            cache_delta = {
                field.name: getattr(after, field.name) - getattr(before, field.name)
                for field in dataclasses.fields(after)
            }
        self._send_json(200, protocol.batch_response_body(report, cache_delta))
        return 200

    def _require_cache(self) -> CacheBackend:
        cache = self.server.cache
        if cache is None:
            raise protocol.ProtocolError(
                503, "no cache configured on this server"
            )
        return cache

    @staticmethod
    def _validate_key(key: str) -> str:
        if len(key) != 64 or any(c not in "0123456789abcdef" for c in key):
            raise protocol.ProtocolError(
                400, "cache key must be 64 lowercase hex characters"
            )
        return key

    def _handle_cache_get(self, key: str) -> int:
        cache = self._require_cache()
        key = self._validate_key(key)
        if self._etag_matches(key):
            self._send_not_modified(key)
            return 304
        metrics = cache.get(key)
        if metrics is None:
            self._send_error_body(404, f"no cache entry {key}")
            return 404
        self._send_json(
            200, metrics_to_payload(key, metrics), etag=key, cache_state="hit"
        )
        return 200

    def _handle_cache_put(self, key: str) -> int:
        cache = self._require_cache()
        key = self._validate_key(key)
        payload = self._read_json_body()
        try:
            metrics = payload_to_metrics(payload)
        except (ValueError, TypeError) as error:
            raise protocol.ProtocolError(400, f"bad envelope: {error}") from error
        if payload.get("key") != key:
            raise protocol.ProtocolError(
                400, "envelope key does not match the request path"
            )
        if not cache.put(key, metrics):
            self._send_error_body(500, "cache write failed")
            return 500
        self._send_bytes(204, b"", etag=key)
        return 204


# ----------------------------------------------------------------------
# Embedding (tests, the bench scenario)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def running_server(config: ServerConfig):
    """Boot a daemon on a background thread; drain and close on exit."""
    server = ScheduleServer(config)
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-server",
        daemon=True,
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        thread.join()
        server.server_close()  # joins in-flight request threads


# ----------------------------------------------------------------------
# CLI (python -m repro serve ...)
# ----------------------------------------------------------------------
def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Run the scheduling daemon: POST loops, get canonical "
        "metrics JSON back, share one warm result cache over HTTP.",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks an ephemeral port (default {DEFAULT_PORT})",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help="directory result cache root (default .repro-cache)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="serve without any cache"
    )
    parser.add_argument(
        "--auth-token",
        metavar="TOKEN",
        default=os.environ.get("REPRO_SERVER_TOKEN"),
        help="require 'Authorization: Bearer TOKEN' on every endpoint "
        "except /healthz (default: $REPRO_SERVER_TOKEN, else no auth)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="/v1/batch worker processes (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        metavar="SECONDS",
        help="/v1/batch per-job wall-clock budget (default: unlimited; "
        "needs --jobs 2 or more)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the final /metricz snapshot here on shutdown",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    args = build_serve_parser().parse_args(argv)
    cache_dir = args.cache_dir
    if args.no_cache:
        cache_dir = None
    elif cache_dir is None:
        from repro.service.batch_cli import DEFAULT_CACHE_DIR

        cache_dir = DEFAULT_CACHE_DIR
    if args.jobs < 1:
        print("error: --jobs must be positive", file=sys.stderr)
        return 2
    if args.job_timeout is not None and args.jobs == 1:
        # A serial /v1/batch runs in its request thread, where the
        # SIGALRM budget cannot be armed: the timeout would never bind.
        print("error: --job-timeout needs --jobs 2 or more", file=sys.stderr)
        return 2

    config = ServerConfig(
        host=args.host,
        port=args.port,
        cache_dir=cache_dir,
        auth_token=args.auth_token,
        jobs=args.jobs,
        job_timeout=args.job_timeout,
        verbose=args.verbose,
    )
    try:
        server = ScheduleServer(config)
    except (OSError, ValueError) as error:
        print(f"error: cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2

    # The announce lines are a tiny machine-readable contract: tests and
    # wrappers parse the URL (ephemeral --port 0 resolves here).
    print(f"serving on {server.url}", flush=True)
    print(
        "cache: "
        + (server.cache.describe() if server.cache is not None else "disabled"),
        flush=True,
    )
    if config.auth_token:
        print("auth: bearer token required", flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    old_handlers = {
        signal.SIGTERM: signal.signal(signal.SIGTERM, _request_stop),
        signal.SIGINT: signal.signal(signal.SIGINT, _request_stop),
    }
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="repro-server",
        daemon=True,
    )
    thread.start()
    try:
        stop.wait()
    finally:
        for signum, handler in old_handlers.items():
            signal.signal(signum, handler)
    print("shutdown: draining in-flight requests", file=sys.stderr, flush=True)
    server.shutdown()
    thread.join()
    server.server_close()  # drain: joins every in-flight request thread

    snapshot = server.metricz_body()
    if args.metrics_out:
        try:
            canonical_dump(snapshot, args.metrics_out)
        except OSError as error:
            print(
                f"error: cannot write metrics to {args.metrics_out}: {error}",
                file=sys.stderr,
            )
            # Still a clean drain; don't fail the shutdown over telemetry.
    served = snapshot["metrics"]["counters"].get("server.requests.total", 0)
    line = f"served {served} request(s)"
    if server.cache is not None:
        stats = server.cache.stats
        line += f"; cache: {stats.hits} hits, {stats.misses} misses"
    print(line, flush=True)
    return 0
