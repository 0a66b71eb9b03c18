"""The client half of scheduling-as-a-service.

:class:`ServerClient` is a tiny JSON-over-HTTP client for a ``repro
serve`` daemon (stdlib ``urllib`` only), with per-request timeouts and
bounded retry-with-backoff on transport failures.

:class:`HTTPCache` wraps it into a :class:`repro.service.cache
.CacheBackend`, so ``repro batch --cache-url http://host:8537`` runs
the entire existing batch machinery against the daemon's shared warm
cache.  Degradation is graceful by design:

- Transport failures (refused, DNS, timeout) trip a **circuit
  breaker**: for ``cooldown`` seconds every operation goes straight to
  the local fallback cache (or degrades to recompute when there is
  none).  A cache is an accelerator; an unreachable server must never
  fail a batch.
- Reads and writes **write through** to the fallback, so a client that
  loses the server mid-run keeps its own warm copy, and a fallback hit
  after a server miss is pushed back up — the fleet re-warms the
  shared cache instead of diverging from it.
- Eviction of the shared store is the server operator's job
  (``batch --gc --cache-dir`` on the server's own cache directory),
  not any one client's.

Conditional gets ride on the canonical keys: every ``GET
/v1/cache/<key>`` response carries ``ETag: "<key>"``, and the content
under a key never changes (the key covers every input and the
scheduler is deterministic), so a 304 is pure bandwidth saving.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Optional, Tuple

from repro.canonical import canonical_bytes
from repro.experiments.metrics import LoopMetrics
from repro.service.cache import (
    CacheBackend,
    CacheStats,
    metrics_to_payload,
    payload_to_metrics,
)


class ServerUnreachable(Exception):
    """The daemon could not be reached (after retries)."""


class ServerClient:
    """Minimal JSON client for one ``repro serve`` base URL."""

    def __init__(
        self,
        base_url: str,
        auth_token: Optional[str] = None,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        self.base_url = base_url.rstrip("/")
        self.auth_token = auth_token
        self.timeout = timeout
        self.retries = max(0, retries)
        self.backoff = backoff

    def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> Tuple[int, dict, bytes]:
        """One HTTP round trip -> ``(status, headers, body_bytes)``.

        HTTP error statuses are *responses*, returned like any other;
        only transport failures raise — :class:`ServerUnreachable`,
        after ``retries`` attempts with exponential backoff.
        """
        data = canonical_bytes(body) if body is not None else None
        request = urllib.request.Request(
            f"{self.base_url}{path}", data=data, method=method
        )
        request.add_header("Accept", "application/json")
        if data is not None:
            request.add_header("Content-Type", "application/json")
        if self.auth_token:
            request.add_header("Authorization", f"Bearer {self.auth_token}")
        for name, value in (headers or {}).items():
            request.add_header(name, value)

        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as reply:
                    return reply.status, dict(reply.headers), reply.read()
            except urllib.error.HTTPError as error:
                # An HTTP status is an answer, not an outage.
                with error:
                    return error.code, dict(error.headers or {}), error.read()
            except (urllib.error.URLError, OSError) as error:
                last_error = error
                if attempt < self.retries:
                    time.sleep(self.backoff * (2 ** attempt))
        raise ServerUnreachable(
            f"{method} {self.base_url}{path}: {last_error}"
        ) from last_error

    def request_json(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[dict] = None,
    ) -> Tuple[int, dict, Optional[dict]]:
        status, reply_headers, raw = self.request(method, path, body, headers)
        payload: Optional[dict] = None
        if raw:
            try:
                payload = json.loads(raw)
            except ValueError:
                payload = None
        return status, reply_headers, payload

    # Convenience wrappers for the endpoints tests and the bench use.
    def healthz(self) -> Optional[dict]:
        return self.request_json("GET", "/healthz")[2]

    def metricz(self) -> Optional[dict]:
        return self.request_json("GET", "/metricz")[2]

    def schedule(self, body: dict, headers: Optional[dict] = None):
        return self.request("POST", "/v1/schedule", body, headers)

    def batch(self, body: dict, headers: Optional[dict] = None):
        return self.request("POST", "/v1/batch", body, headers)


class HTTPCache(CacheBackend):
    """A CacheBackend served by a remote daemon, with local degradation."""

    def __init__(
        self,
        base_url: str,
        fallback: Optional[CacheBackend] = None,
        auth_token: Optional[str] = None,
        timeout: float = 10.0,
        retries: int = 1,
        backoff: float = 0.2,
        cooldown: float = 30.0,
    ):
        self.client = ServerClient(
            base_url, auth_token=auth_token, timeout=timeout,
            retries=retries, backoff=backoff,
        )
        self.fallback = fallback
        self.cooldown = cooldown
        self.stats = CacheStats()
        #: Degradation events: transport failures that tripped (or
        #: re-armed) the circuit breaker.
        self.degraded = 0
        self._down_until = 0.0

    def describe(self) -> str:
        label = f"http:{self.client.base_url}"
        if self.fallback is not None:
            label += f" (fallback {self.fallback.describe()})"
        return label

    # -- circuit breaker ----------------------------------------------
    def _remote_available(self) -> bool:
        return time.monotonic() >= self._down_until

    def _trip(self) -> None:
        self.degraded += 1
        self._down_until = time.monotonic() + self.cooldown

    # -- CacheBackend protocol ----------------------------------------
    def get(self, key: str) -> Optional[LoopMetrics]:
        metrics = self._remote_get(key) if self._remote_available() else None
        if metrics is not None:
            self.stats.hits += 1
            if self.fallback is not None:
                self.fallback.put(key, metrics)  # keep the local copy warm
            return metrics
        if self.fallback is not None:
            metrics = self.fallback.get(key)
            if metrics is not None:
                self.stats.hits += 1
                # Entries are content-addressed and deterministic, so a
                # local hit is always valid upstream: re-warm the
                # shared cache with it (best-effort).
                if self._remote_available():
                    self._remote_put(key, metrics)
                return metrics
        self.stats.misses += 1
        return None

    def _remote_get(self, key: str) -> Optional[LoopMetrics]:
        try:
            status, _, raw = self.client.request("GET", f"/v1/cache/{key}")
        except ServerUnreachable:
            self._trip()
            return None
        if status != 200:
            if status in (401, 403):
                self._trip()  # a bad token fails every request; back off
            return None
        try:
            return payload_to_metrics(json.loads(raw))
        except (ValueError, TypeError):
            self.stats.corrupt += 1
            return None

    def put(self, key: str, metrics: LoopMetrics) -> bool:
        stored = False
        if self._remote_available():
            stored = self._remote_put(key, metrics)
        if self.fallback is not None:
            stored = self.fallback.put(key, metrics) or stored
        if stored:
            self.stats.writes += 1
        else:
            self.stats.write_errors += 1
        return stored

    def _remote_put(self, key: str, metrics: LoopMetrics) -> bool:
        try:
            status, _, _ = self.client.request(
                "PUT", f"/v1/cache/{key}", metrics_to_payload(key, metrics)
            )
        except ServerUnreachable:
            self._trip()
            return False
        if status in (401, 403):
            self._trip()
        return status == 204
