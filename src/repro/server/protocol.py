"""The scheduling server's wire protocol: requests in, envelopes out.

Everything on the wire is JSON.  Requests are plain objects validated
strictly — an unknown field, a wrong type or an out-of-range value is a
400 with a one-line reason, never a silent default — and responses are
canonical (sorted-key, compact) JSON from :mod:`repro.canonical`, so
the same request always produces byte-identical bytes:

- a ``POST /v1/schedule`` answered from the cache is byte-identical to
  the response that populated it (the cache preserves the original
  run's timing fields, and the envelope carries nothing per-request);
- the response ``ETag`` is the canonical SHA-256 request key from
  :mod:`repro.service.keys`, so ``If-None-Match`` turns a repeat
  request into a 304 before any scheduling work happens.

This module is transport-free (no sockets, no threads) so both the
daemon (:mod:`repro.server.app`) and tests can use it directly.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

#: Envelope identifiers.  Bump the version when a response's structure
#: changes incompatibly; clients refuse versions they don't know.
SERVER_PROTOCOL_VERSION = 1
SCHEDULE_SCHEMA = "repro.server.schedule"
BATCH_SCHEMA = "repro.server.batch"
ERROR_SCHEMA = "repro.server.error"
HEALTH_SCHEMA = "repro.server.health"
METRICZ_SCHEMA = "repro.server.metricz"

#: Extras a schedule request may ask for.  Both are recomputed per
#: request (the cache stores only metrics), deterministically — the
#: scheduler is deterministic, so repeat requests still match bytes.
INCLUDE_CHOICES = ("schedule", "explain")

#: Abuse bounds: one oversized request must not take the daemon down.
MAX_SOURCE_BYTES = 256 * 1024
MAX_BATCH_LOOPS = 2048

def machine_names() -> Tuple[str, ...]:
    """The machines a request may name — the registry's families.

    Registering a new :class:`repro.machine.registry.MachineFamily`
    makes it immediately servable over ``/v1/schedule``/``/v1/batch``;
    nothing here hardcodes a target list.
    """
    from repro.machine.registry import machine_names as registry_names

    return registry_names()


def __getattr__(name: str):
    # MACHINE_NAMES stays importable (and always current) without
    # paying the machine-model import at protocol import time.
    if name == "MACHINE_NAMES":
        return machine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def machine_catalog() -> List[dict]:
    """Machine negotiation payload (served on ``GET /healthz``).

    Lists every registered family with its parameters, defaults and
    legal ranges, so a client can discover what ``{"machine": ...}``
    objects this server accepts before posting work.
    """
    from repro.machine.registry import families

    return [
        {
            "name": family.name,
            "description": family.description,
            "default_machine": family.spec().name,
            "params": [
                {
                    "name": param.name,
                    "default": param.default,
                    "min": param.minimum,
                    "max": param.maximum,
                }
                for param in family.params
            ],
        }
        for family in families()
    ]


class ProtocolError(Exception):
    """A request the server refuses; carries the HTTP status to send."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


def error_body(status: int, message: str) -> dict:
    return {
        "schema": ERROR_SCHEMA,
        "schema_version": SERVER_PROTOCOL_VERSION,
        "status": status,
        "error": message,
    }


# ----------------------------------------------------------------------
# Field validation helpers
# ----------------------------------------------------------------------
def _require_object(payload, what: str) -> dict:
    if not isinstance(payload, dict):
        raise ProtocolError(400, f"{what} must be a JSON object")
    return payload


def _reject_unknown(payload: dict, known: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ProtocolError(
            400,
            f"unknown {what} field(s) {', '.join(unknown)}; "
            f"known: {', '.join(known)}",
        )


def parse_machine(spec) -> "object":
    """``{"name": "cydra5", "load_latency": 13}`` -> a Machine.

    The name is resolved against the machine registry and every other
    field is validated as one of that family's declared parameters —
    unknown names and out-of-range values are strict 400s whose
    messages list the registry's current contents.
    """
    from repro.machine.registry import MachineParamError, get_family

    if spec is None:
        return get_family("cydra5").build()
    spec = _require_object(spec, "machine")
    name = spec.get("name", "cydra5")
    known = machine_names()
    if not isinstance(name, str) or name not in known:
        raise ProtocolError(
            400,
            f"unknown machine {name!r}; known: {', '.join(known)}",
        )
    family = get_family(name)
    _reject_unknown(spec, ("name",) + family.param_names(), "machine")
    params = {}
    for param_name in family.param_names():
        if param_name in spec:
            value = spec[param_name]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ProtocolError(
                    400, f"machine.{param_name} must be an integer"
                )
            params[param_name] = value
    try:
        return family.build(**params)
    except MachineParamError as error:
        raise ProtocolError(400, f"machine.{error}") from error


def parse_options(spec) -> Optional[object]:
    """A SchedulerOptions field subset -> SchedulerOptions (None = defaults)."""
    from repro.core import SchedulerOptions

    if spec is None:
        return None
    spec = _require_object(spec, "options")
    fields = {field.name for field in dataclasses.fields(SchedulerOptions)}
    _reject_unknown(spec, tuple(sorted(fields)), "options")
    for name, value in spec.items():
        if value is not None and not isinstance(value, (bool, int, float)):
            raise ProtocolError(400, f"options.{name} must be a number or bool")
    try:
        return SchedulerOptions(**spec)
    except TypeError as error:  # pragma: no cover - fields checked above
        raise ProtocolError(400, f"bad options: {error}") from error


def parse_algorithm(value) -> str:
    from repro.core import ALGORITHMS

    if value is None:
        return "slack"
    if not isinstance(value, str) or value not in ALGORITHMS:
        raise ProtocolError(
            400,
            f"unknown algorithm {value!r}; "
            f"known: {', '.join(sorted(ALGORITHMS))}",
        )
    return value


def _parse_source(text, what: str = "source"):
    from repro.frontend.parser import ParseError, parse_loop

    if not isinstance(text, str):
        raise ProtocolError(400, f"{what} must be a string of loop DSL")
    if len(text.encode("utf-8", errors="replace")) > MAX_SOURCE_BYTES:
        raise ProtocolError(413, f"{what} exceeds {MAX_SOURCE_BYTES} bytes")
    try:
        return parse_loop(text)
    except (ParseError, ValueError) as error:
        raise ProtocolError(400, f"{what}: {error}") from error


# ----------------------------------------------------------------------
# POST /v1/schedule
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ScheduleRequest:
    """One validated scheduling request, ready to key and execute."""

    program: object  # DoLoop
    machine: object  # Machine
    algorithm: str
    options: Optional[object]
    include: Tuple[str, ...] = ()
    use_cache: bool = True


_SCHEDULE_FIELDS = ("source", "machine", "algorithm", "options", "include", "cache")


def parse_schedule_request(payload) -> ScheduleRequest:
    payload = _require_object(payload, "request body")
    _reject_unknown(payload, _SCHEDULE_FIELDS, "request")
    if "source" not in payload:
        raise ProtocolError(400, "request is missing 'source'")
    include = payload.get("include", [])
    if not isinstance(include, list) or not all(
        isinstance(item, str) for item in include
    ):
        raise ProtocolError(400, "include must be a list of strings")
    bad = sorted(set(include) - set(INCLUDE_CHOICES))
    if bad:
        raise ProtocolError(
            400,
            f"unknown include item(s) {', '.join(bad)}; "
            f"known: {', '.join(INCLUDE_CHOICES)}",
        )
    use_cache = payload.get("cache", True)
    if not isinstance(use_cache, bool):
        raise ProtocolError(400, "cache must be a boolean")
    return ScheduleRequest(
        program=_parse_source(payload["source"]),
        machine=parse_machine(payload.get("machine")),
        algorithm=parse_algorithm(payload.get("algorithm")),
        options=parse_options(payload.get("options")),
        include=tuple(dict.fromkeys(include)),
        use_cache=use_cache,
    )


def schedule_response_body(key: str, metrics, extras: Optional[dict] = None) -> dict:
    """The /v1/schedule envelope (canonicalized by the transport)."""
    body = {
        "schema": SCHEDULE_SCHEMA,
        "schema_version": SERVER_PROTOCOL_VERSION,
        "key": key,
        "metrics": dataclasses.asdict(metrics),
    }
    if extras:
        body.update(extras)
    return body


def schedule_extras(request: ScheduleRequest) -> dict:
    """Recompute the requested extras (schedule render / explain).

    The cache stores metrics only, so extras are recomputed on every
    request that asks for them — deterministically, because the
    scheduler is: two identical requests render identical text.
    """
    if not request.include:
        return {}
    from repro.core import modulo_schedule
    from repro.frontend import compile_loop
    from repro.ir import build_ddg
    from repro.obs import CollectingTracer, explain

    loop = compile_loop(request.program)
    ddg = build_ddg(loop, request.machine)
    tracer = CollectingTracer() if "explain" in request.include else None
    result = modulo_schedule(
        loop,
        request.machine,
        algorithm=request.algorithm,
        options=request.options,
        ddg=ddg,
        tracer=tracer,
    )
    extras: dict = {}
    if "schedule" in request.include:
        extras["schedule"] = (
            result.schedule.render() if result.success else None
        )
    if "explain" in request.include:
        extras["explain"] = explain(result, tracer.events, ddg=ddg)
    return extras


# ----------------------------------------------------------------------
# POST /v1/batch
# ----------------------------------------------------------------------
@dataclasses.dataclass
class BatchRequest:
    """One validated batch request: many programs, one configuration."""

    programs: List[object]
    machine: object
    algorithm: str
    options: Optional[object]
    use_cache: bool = True


_BATCH_FIELDS = (
    "sources", "corpus", "seed", "machine", "algorithm", "options", "cache",
)


def parse_batch_request(payload) -> BatchRequest:
    payload = _require_object(payload, "request body")
    _reject_unknown(payload, _BATCH_FIELDS, "request")
    sources = payload.get("sources")
    corpus = payload.get("corpus")
    if (sources is None) == (corpus is None):
        raise ProtocolError(400, "pass exactly one of 'sources' and 'corpus'")
    if sources is not None:
        if not isinstance(sources, list) or not sources:
            raise ProtocolError(400, "sources must be a non-empty list")
        if len(sources) > MAX_BATCH_LOOPS:
            raise ProtocolError(413, f"at most {MAX_BATCH_LOOPS} loops per batch")
        programs = [
            _parse_source(text, what=f"sources[{index}]")
            for index, text in enumerate(sources)
        ]
    else:
        if not isinstance(corpus, int) or isinstance(corpus, bool):
            raise ProtocolError(400, "corpus must be an integer")
        if not 1 <= corpus <= MAX_BATCH_LOOPS:
            raise ProtocolError(400, f"corpus must be in 1..{MAX_BATCH_LOOPS}")
        seed = payload.get("seed", 1993)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ProtocolError(400, "seed must be an integer")
        from repro.workloads import paper_corpus

        programs = paper_corpus(corpus, seed=seed)
    use_cache = payload.get("cache", True)
    if not isinstance(use_cache, bool):
        raise ProtocolError(400, "cache must be a boolean")
    return BatchRequest(
        programs=programs,
        machine=parse_machine(payload.get("machine")),
        algorithm=parse_algorithm(payload.get("algorithm")),
        options=parse_options(payload.get("options")),
        use_cache=use_cache,
    )


def batch_response_body(report, cache_delta: Optional[dict] = None) -> dict:
    """The /v1/batch envelope from a :class:`BatchReport`.

    ``cache_delta`` is this request's share of the shared cache's
    counters (the backend outlives requests, so raw stats would be
    cumulative across clients).
    """
    pool = report.pool
    return {
        "schema": BATCH_SCHEMA,
        "schema_version": SERVER_PROTOCOL_VERSION,
        "ok": report.ok,
        "counts": report.counts(),
        "wall_seconds": report.wall_seconds,
        "cache": cache_delta,
        "pool": {
            "backend": pool.backend,
            "workers": pool.workers,
            "fallback_serial": pool.fallback_serial,
            "retries": pool.retries,
        },
        "latency_quantiles": report.latency_quantiles(),
        "results": [
            {
                "name": result.name,
                "status": result.status,
                "error": result.error,
                "metrics": (
                    dataclasses.asdict(result.metrics)
                    if result.metrics is not None
                    else None
                ),
            }
            for result in report.results
        ],
    }
