"""Export formats: JSONL round trip and Chrome trace-event structure."""

import json
import re

import pytest

from repro.core import modulo_schedule
from repro.obs import (
    CollectingTracer,
    Observer,
    load_jsonl,
    replay_times,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
    write_jsonl,
)

from tests.conftest import build_divider_loop, build_figure1_loop


def traced(machine, build=build_figure1_loop):
    tracer = CollectingTracer()
    result = modulo_schedule(build(), machine, observer=Observer(tracer))
    return result, tracer.events


def test_jsonl_roundtrip_is_lossless(machine, tmp_path):
    result, events = traced(machine)
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(events, path)
    loaded = load_jsonl(path)
    assert loaded == events
    # The acceptance criterion: a written trace replays to the schedule.
    assert replay_times(loaded) == result.schedule.times


def test_jsonl_is_one_object_per_line(machine, tmp_path):
    _, events = traced(machine)
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(events, path)
    with open(path) as handle:
        lines = [line for line in handle.read().splitlines() if line]
    assert len(lines) == len(events)
    for line in lines:
        payload = json.loads(line)
        assert "kind" in payload and "seq" in payload and "ts" in payload


def test_jsonl_empty_trace(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    write_jsonl([], path)
    assert load_jsonl(path) == []
    assert to_jsonl([]) == ""


_PLACE = {"kind": "place", "oid": 1, "cycle": 0, "forced": False, "seq": 0}


def _without(key):
    return json.dumps({name: value for name, value in _PLACE.items() if name != key})


@pytest.mark.parametrize(
    "line, message",
    [
        (json.dumps({**_PLACE, "kind": "not_a_kind"}), "unknown trace event kind 'not_a_kind'"),
        (_without("kind"), "unknown trace event kind None"),
        (_without("forced"), "place event lacks forced"),
        (_without("seq"), "place event lacks seq"),
        (json.dumps({**_PLACE, "reason": ""}), r"place event has unknown field\(s\) reason"),
        (json.dumps([1, 2]), "not a JSON object"),
        ("{not json", "not JSON"),
    ],
    ids=[
        "unknown-kind", "no-kind", "missing-field", "missing-seq", "extra-field",
        "array", "not-json",
    ],
)
def test_load_jsonl_rejects_a_bad_line_naming_it(tmp_path, line, message):
    path = tmp_path / "trace.jsonl"
    path.write_text(json.dumps(_PLACE) + "\n\n" + line + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: {message}"):
        load_jsonl(str(path))


def test_batch_stamps_load_and_a_job_start_keeps_its_own_fields(tmp_path):
    records = [
        {**_PLACE, "ts": 1.5, "loop": "ll1", "job": 0},
        {"kind": "job_start", "job": 3, "loop": "inner", "seq": 0},
    ]
    path = str(tmp_path / "trace.jsonl")
    write_jsonl(records, path)
    assert load_jsonl(path) == records


def test_chrome_trace_structure(machine, tmp_path):
    """Structural validation of what chrome://tracing / Perfetto needs."""
    _, events = traced(machine, build_divider_loop)
    path = str(tmp_path / "trace.json")
    write_chrome_trace(events, path)
    with open(path) as handle:
        document = json.load(handle)
    assert isinstance(document["traceEvents"], list)
    phases = set()
    for entry in document["traceEvents"]:
        assert "name" in entry and "ph" in entry and "pid" in entry
        phases.add(entry["ph"])
        if entry["ph"] != "M":
            assert entry["ts"] >= 0
        if entry["ph"] == "X":
            assert entry["dur"] > 0
    # Metadata, attempt slices, instants, and the placed-ops counter.
    assert {"M", "X", "i", "C"} <= phases


def test_chrome_trace_attempt_slices(machine):
    result, events = traced(machine)
    document = to_chrome_trace(events)
    slices = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(slices) == result.stats.attempts
    assert any("[ok]" in s["name"] for s in slices)


def test_chrome_counter_track_ends_at_op_count(machine):
    result, events = traced(machine)
    counters = [
        e["args"]["placed"]
        for e in to_chrome_trace(events)["traceEvents"]
        if e["ph"] == "C"
    ]
    # The final counter value is every op placed (incl. Start and Stop).
    assert counters[-1] == len(result.loop.ops)
