"""Wire-protocol validation: strict requests, deterministic envelopes."""

import pytest

from repro.core import SchedulerOptions
from repro.machine.registry import machine_names
from repro.server import protocol
from repro.server.protocol import (
    ProtocolError,
    parse_batch_request,
    parse_schedule_request,
)

SOURCE = """\
loop tiny
array x 60
do i = 2, 41
    x(i) = x(i-1) + 1.0
end do
"""


def _status(call, *args, **kwargs) -> int:
    with pytest.raises(ProtocolError) as excinfo:
        call(*args, **kwargs)
    return excinfo.value.status


# ----------------------------------------------------------------------
# POST /v1/schedule requests
# ----------------------------------------------------------------------
def test_minimal_schedule_request_parses():
    request = parse_schedule_request({"source": SOURCE})
    assert request.algorithm == "slack"
    assert request.use_cache is True
    assert request.include == ()
    assert request.options is None
    assert request.program.name == "tiny"


def test_full_schedule_request_parses():
    request = parse_schedule_request(
        {
            "source": SOURCE,
            "machine": {"name": "cydra5", "load_latency": 2},
            "algorithm": "slack",
            "options": {"budget_ratio": 2.0, "bidirectional": False},
            "include": ["schedule", "explain", "schedule"],
            "cache": False,
        }
    )
    assert request.machine.name == "cydra5-load2"
    assert isinstance(request.options, SchedulerOptions)
    assert request.options.budget_ratio == 2.0
    assert request.include == ("schedule", "explain")  # deduplicated
    assert request.use_cache is False


@pytest.mark.parametrize(
    "payload",
    [
        [],  # not an object
        {},  # missing source
        {"source": SOURCE, "surprise": 1},  # unknown field
        {"source": 42},  # source not a string
        {"source": "not a loop"},  # parse error
        {"source": SOURCE, "include": "schedule"},  # include not a list
        {"source": SOURCE, "include": ["kernel"]},  # unknown include
        {"source": SOURCE, "cache": "yes"},  # cache not a bool
        {"source": SOURCE, "algorithm": "magic"},
        {"source": SOURCE, "machine": {"name": "tms320"}},
        {"source": SOURCE, "machine": {"load_latency": True}},
        {"source": SOURCE, "machine": {"load_latency": 0}},
        {"source": SOURCE, "machine": {"cores": 4}},
        {"source": SOURCE, "options": {"warp": 9}},  # unknown option
        {"source": SOURCE, "options": {"budget_ratio": "big"}},
    ],
)
def test_bad_schedule_requests_are_400(payload):
    assert _status(parse_schedule_request, payload) == 400


def test_oversized_source_is_413():
    huge = SOURCE + "!" * protocol.MAX_SOURCE_BYTES
    assert _status(parse_schedule_request, {"source": huge}) == 413


def test_schedule_response_body_shape():
    from repro.experiments import measure_loop
    from repro.frontend.parser import parse_loop
    from repro.machine import cydra5

    metrics = measure_loop(parse_loop(SOURCE), cydra5())
    body = protocol.schedule_response_body("ab" * 32, metrics, {"schedule": "k"})
    assert body["schema"] == protocol.SCHEDULE_SCHEMA
    assert body["schema_version"] == protocol.SERVER_PROTOCOL_VERSION
    assert body["key"] == "ab" * 32
    assert body["metrics"]["success"] is True
    assert body["schedule"] == "k"


def test_schedule_extras_are_deterministic():
    request = parse_schedule_request(
        {"source": SOURCE, "include": ["schedule", "explain"]}
    )
    first = protocol.schedule_extras(request)
    second = protocol.schedule_extras(request)
    assert first["schedule"] and first["explain"]
    assert first == second


# ----------------------------------------------------------------------
# Machine negotiation (the repro.machine.registry wire surface)
# ----------------------------------------------------------------------
def test_registry_machines_parse():
    request = parse_schedule_request(
        {"source": SOURCE, "machine": {"name": "simd"}}
    )
    assert request.machine.name == "simd-d2-l2-load12"
    request = parse_schedule_request(
        {
            "source": SOURCE,
            "machine": {"name": "vliw-wide", "issue": 4, "load_latency": 5},
        }
    )
    assert request.machine.name == "vliw-wide-x4-load5"


def test_machine_names_tracks_registry():
    for name in machine_names():
        assert protocol.parse_machine({"name": name}).wire["name"] == name


def test_unknown_machine_error_lists_registry_names():
    with pytest.raises(ProtocolError) as excinfo:
        parse_schedule_request(
            {"source": SOURCE, "machine": {"name": "tms320"}}
        )
    assert excinfo.value.status == 400
    for name in machine_names():
        assert name in excinfo.value.message


@pytest.mark.parametrize(
    "machine, fragment",
    [
        ({"name": "simd", "lanes": 0}, "machine.lanes must be in 1..16"),
        ({"name": "simd", "depth": "deep"}, "machine.depth must be an integer"),
        ({"name": "gpu", "occupancy": 99}, "machine.occupancy must be in 1..32"),
        ({"name": "vliw-wide", "lanes": 2}, "unknown machine field(s) lanes"),
    ],
)
def test_machine_param_errors_are_400(machine, fragment):
    with pytest.raises(ProtocolError) as excinfo:
        parse_schedule_request({"source": SOURCE, "machine": machine})
    assert excinfo.value.status == 400
    assert fragment in excinfo.value.message


def test_machine_catalog_shape():
    catalog = protocol.machine_catalog()
    assert [family["name"] for family in catalog] == list(machine_names())
    for family in catalog:
        assert family["default_machine"]
        assert family["description"]
        for param in family["params"]:
            assert set(param) == {"name", "default", "min", "max"}


# ----------------------------------------------------------------------
# POST /v1/batch requests
# ----------------------------------------------------------------------
def test_batch_request_with_sources():
    request = parse_batch_request({"sources": [SOURCE, SOURCE]})
    assert len(request.programs) == 2
    assert request.use_cache is True


def test_batch_request_with_corpus():
    request = parse_batch_request({"corpus": 3, "seed": 7})
    assert len(request.programs) == 3


@pytest.mark.parametrize(
    "payload",
    [
        {},  # neither sources nor corpus
        {"sources": [SOURCE], "corpus": 2},  # both
        {"sources": []},
        {"sources": "loop"},
        {"sources": [SOURCE, "broken"]},
        {"corpus": 0},
        {"corpus": True},
        {"corpus": 2, "seed": "lucky"},
        {"corpus": 2, "surprise": 1},
    ],
)
def test_bad_batch_requests_are_400(payload):
    assert _status(parse_batch_request, payload) == 400


def test_batch_too_many_loops_is_413():
    sources = [SOURCE] * (protocol.MAX_BATCH_LOOPS + 1)
    assert _status(parse_batch_request, {"sources": sources}) == 413


def test_error_body_shape():
    body = protocol.error_body(404, "gone")
    assert body["schema"] == protocol.ERROR_SCHEMA
    assert body["status"] == 404 and body["error"] == "gone"
