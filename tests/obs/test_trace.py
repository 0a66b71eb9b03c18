"""Trace invariants: the event stream is a faithful, replayable record.

The contracts under test:

* replaying the place/eject stream of a trace reconstructs the exact
  final ``times`` dict of the schedule the run produced;
* every place event belonging to the final schedule survives (is not
  followed by an eject of the same oid within the final attempt);
* one attempt_start per driver attempt, trace counters match
  SchedulerStats, and the serialization round trip is lossless;
* every event is a dict holding exactly its kind's ``EVENT_FIELDS``
  plus the keys its tracer stamped.
"""

import json

import pytest

from repro.core import ALGORITHMS, SchedulerOptions, modulo_schedule
from repro.frontend import compile_loop
from repro.machine import build_machine, machine_names
from repro.obs import (
    EVENT_FIELDS,
    CollectingTracer,
    FlightRecorder,
    Observer,
    Tracer,
    load_jsonl,
    replay_times,
    split_attempts,
    write_jsonl,
)
from repro.service.batch import run_batch
from repro.service.jobs import JOB_FAILED, ScheduleJob
from repro.service.pool import execute_job
from repro.workloads import paper_corpus

from tests.conftest import (
    build_accumulator_loop,
    build_divider_loop,
    build_figure1_loop,
)


def traced_run(loop, machine, **kwargs):
    tracer = CollectingTracer()
    result = modulo_schedule(loop, machine, observer=Observer(tracer), **kwargs)
    return result, tracer.events


def _place(oid, cycle):
    return {"kind": "place", "oid": oid, "cycle": cycle, "forced": False}


def _raising_job():
    [program] = paper_corpus(1)
    return ScheduleJob(index=0, name=program.name, program=program, fault="raise")


def _assert_schema(events, stamps):
    """Each event holds its kind's fields, ``seq`` and ``stamps``, only."""
    for event in events:
        expected = {"kind", *EVENT_FIELDS[event["kind"]], "seq", *stamps}
        assert set(event) == expected, event


@pytest.mark.parametrize("algorithm", ["slack", "cydrome", "height", "warp"])
def test_replay_reconstructs_final_schedule(machine, algorithm):
    result, events = traced_run(build_figure1_loop(), machine, algorithm=algorithm)
    assert result.success
    assert replay_times(events) == result.schedule.times


@pytest.mark.parametrize(
    "build", [build_figure1_loop, build_accumulator_loop, build_divider_loop]
)
def test_replay_across_loops(machine, build):
    result, events = traced_run(build(), machine)
    assert result.success
    assert replay_times(events) == result.schedule.times


def test_surviving_places_match_schedule(machine):
    result, events = traced_run(build_figure1_loop(), machine)
    last_attempt = split_attempts(events)[-1]
    survivors = {}
    for event in last_attempt:
        if event["kind"] == "place":
            survivors[event["oid"]] = event["cycle"]
        elif event["kind"] == "eject":
            assert survivors.pop(event["oid"]) == event["cycle"]
    assert survivors == result.schedule.times


def test_final_schedule_places_are_never_ejected_afterwards(machine):
    result, events = traced_run(build_figure1_loop(), machine)
    last_attempt = split_attempts(events)[-1]
    last_place = {}
    for index, event in enumerate(last_attempt):
        if event["kind"] == "place":
            last_place[event["oid"]] = index
    for index, event in enumerate(last_attempt):
        if event["kind"] == "eject":
            # Any ejection must be undone by a later re-placement.
            assert last_place[event["oid"]] > index


def test_attempt_starts_match_stats(machine):
    result, events = traced_run(build_figure1_loop(), machine)
    starts = [e for e in events if e["kind"] == "attempt_start"]
    assert len(starts) == result.stats.attempts
    assert all(s["algorithm"] == "slack" for s in starts)
    assert starts[0]["ii"] == result.mii
    assert starts[0]["n_ops"] == len(result.loop.real_ops)
    assert starts[0]["budget"] > 0


def test_trace_counters_match_scheduler_stats(machine):
    result, events = traced_run(build_divider_loop(), machine)
    places = sum(1 for e in events if e["kind"] == "place")
    ejects = sum(1 for e in events if e["kind"] == "eject")
    forces = sum(1 for e in events if e["kind"] == "force_place")
    # Start's implicit placement is traced but not counted in stats.
    assert places == result.stats.placements + result.stats.attempts
    assert ejects == result.stats.ejections
    assert forces == result.stats.forced


def test_pressure_rejection_escalates_with_reason(machine):
    # A register budget of 1 is unsatisfiable at MII: the driver must
    # reject found schedules, emit attempt_fail + ii_escalate, and retry.
    options = SchedulerOptions(max_rr_pressure=1, max_attempts=3)
    result, events = traced_run(build_figure1_loop(), machine, options=options)
    assert not result.success
    fails = [e for e in events if e["kind"] == "attempt_fail"]
    escalations = [e for e in events if e["kind"] == "ii_escalate"]
    assert len(fails) == 3 and len(escalations) == 3
    assert all("register budget" in f["reason"] for f in fails)
    # Replay of a failed run ends with whatever the last attempt left:
    # the trace still replays without error.
    replay_times(events)


def test_schedule_found_event(machine):
    result, events = traced_run(build_figure1_loop(), machine)
    found = [e for e in events if e["kind"] == "schedule_found"]
    assert len(found) == 1
    assert found[0]["ii"] == result.schedule.ii
    assert found[0]["span"] == result.schedule.span
    assert found[0]["stages"] == result.schedule.stages


def test_events_have_monotonic_seq_and_ts(machine):
    _, events = traced_run(build_figure1_loop(), machine)
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(len(events)))
    timestamps = [e["ts"] for e in events]
    assert timestamps == sorted(timestamps)


def test_event_dict_roundtrip(machine):
    _, events = traced_run(build_divider_loop(), machine)
    assert events
    for event in events:
        assert json.loads(json.dumps(event)) == event


def test_null_tracer_records_nothing(machine):
    """None is the one "no tracer": the run is untraced, not an error."""
    observer = Observer(None)
    assert observer.trace is None and not observer.enabled
    result = modulo_schedule(build_figure1_loop(), machine, observer=observer)
    assert result.success


# ----------------------------------------------------------------------
# FlightRecorder: the bounded ring behind crash post-mortems
# ----------------------------------------------------------------------
def test_flight_recorder_rejects_bad_capacity():
    with pytest.raises(ValueError, match="capacity"):
        FlightRecorder(capacity=0)


def test_flight_recorder_keeps_last_n_oldest_first():
    ring = FlightRecorder(capacity=3)
    for oid in range(7):
        ring.emit(_place(oid, oid))
    assert ring.total == 7
    assert ring.dropped == 4
    assert [event["oid"] for event in ring.events()] == [4, 5, 6]
    # seq keeps counting across the wrap, so dumps name the drop count.
    assert [event["seq"] for event in ring.events()] == [4, 5, 6]


def test_flight_recorder_below_capacity_keeps_everything():
    ring = FlightRecorder(capacity=8)
    ring.emit(_place(1, 0))
    ring.emit({"kind": "eject", "oid": 1, "cycle": 0, "cause": "force"})
    assert ring.dropped == 0
    assert [event["kind"] for event in ring.events()] == ["place", "eject"]


def test_flight_recorder_append_does_not_restamp():
    # append() shadows another tracer that already stamped seq/ts; the
    # ring must keep those stamps untouched (tee mode).
    ring = FlightRecorder(capacity=4)
    event = {**_place(9, 3), "seq": 42}
    ring.append(event)
    assert ring.events()[0]["seq"] == 42


def test_flight_recorder_dump_is_json_safe():
    ring = FlightRecorder(capacity=4)
    ring.emit({"kind": "job_start", "job": 7, "loop": "ll3"})
    ring.emit(_place(1, 2))
    dump = ring.dump()
    clones = json.loads(json.dumps(dump))
    assert clones == dump
    assert clones[0]["kind"] == "job_start" and clones[0]["loop"] == "ll3"
    # A dump is a copy: re-stamping a shared event cannot change it.
    ring.events()[0]["seq"] = 99
    assert dump[0]["seq"] == 0


def test_flight_recorder_shadows_a_real_run(machine):
    # Scheduling under the ring alone: same event stream as a full
    # tracer, truncated to the last `capacity` events.
    full = CollectingTracer()
    modulo_schedule(build_figure1_loop(), machine, observer=Observer(full))
    ring = FlightRecorder(capacity=16)
    modulo_schedule(build_figure1_loop(), machine, observer=Observer(ring))
    assert ring.total == len(full.events)
    tail = [
        {key: value for key, value in event.items() if key not in ("seq", "ts")}
        for event in full.events[-16:]
    ]
    assert [
        {key: value for key, value in event.items() if key != "seq"}
        for event in ring.events()
    ] == tail


def test_job_start_event_roundtrips(tmp_path):
    job = _raising_job()
    result = execute_job(job, build_machine("cydra5"))
    [event] = result.flight
    assert event == {"kind": "job_start", "job": 0, "loop": job.name, "seq": 0}
    path = str(tmp_path / "ring.jsonl")
    write_jsonl(result.flight, path)
    assert load_jsonl(path) == result.flight


# ----------------------------------------------------------------------
# The schema: every event holds exactly its kind's fields and stamps
# ----------------------------------------------------------------------
def test_every_emitted_event_holds_exactly_its_kinds_fields():
    kinds = set()
    job = _raising_job()
    for target in machine_names():
        machine = build_machine(target)
        for algorithm in ALGORITHMS:
            runs = [(program, None) for program in paper_corpus(12)]
            # A register budget of 1 makes an attempt fail and escalate,
            # so the runs reach every kind of scheduler event.
            runs.append((job.program, SchedulerOptions(max_rr_pressure=1, max_attempts=2)))
            for program, options in runs:
                tracer = CollectingTracer()
                modulo_schedule(
                    compile_loop(program), machine, algorithm=algorithm,
                    options=options, observer=Observer(tracer),
                )
                _assert_schema(tracer.events, ("ts",))
                kinds.update(event["kind"] for event in tracer.events)
        # A flight ring stamps only seq; a raising job's ring holds its
        # job_start breadcrumb.
        ring = FlightRecorder()
        modulo_schedule(compile_loop(job.program), machine, observer=Observer(ring))
        _assert_schema(ring.dump(), ())
        result = execute_job(job, machine)
        assert result.status == JOB_FAILED and result.flight
        _assert_schema(result.flight, ())
        kinds.update(event["kind"] for event in result.flight)
        # A batch trace record adds its loop and job to the tracer's stamps.
        report = run_batch(paper_corpus(3), machine, observer=Observer(Tracer()))
        assert report.trace_records
        _assert_schema(report.trace_records, ("ts", "loop", "job"))
    # No schema entry is dead.
    assert kinds == set(EVENT_FIELDS)
