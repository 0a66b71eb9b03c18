"""Trace invariants: the event stream is a faithful, replayable record.

The contracts under test (ISSUE 1 acceptance criteria):

* replaying the Place/Eject stream of a trace reconstructs the exact
  final ``times`` dict of the schedule the run produced;
* every Place event belonging to the final schedule survives (is not
  followed by an Eject of the same oid within the final attempt);
* one AttemptStart per driver attempt, trace counters match
  SchedulerStats, and the serialization round trip is lossless.
"""

import pytest

from repro.core import SchedulerOptions, modulo_schedule
from repro.obs import (
    AttemptFail,
    AttemptStart,
    CollectingTracer,
    Eject,
    FlightRecorder,
    ForcePlace,
    IIEscalate,
    JobStart,
    Observer,
    Place,
    ScheduleFound,
    event_from_dict,
    replay_times,
    split_attempts,
    surviving_places,
)

from tests.conftest import (
    build_accumulator_loop,
    build_divider_loop,
    build_figure1_loop,
)


def traced_run(loop, machine, **kwargs):
    tracer = CollectingTracer()
    result = modulo_schedule(loop, machine, observer=Observer(tracer), **kwargs)
    return result, tracer.events


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
    survivors = surviving_places(events)
    assert {p.oid: p.cycle for p in survivors} == result.schedule.times


def test_final_schedule_places_are_never_ejected_afterwards(machine):
    result, events = traced_run(build_figure1_loop(), machine)
    last_attempt = split_attempts(events)[-1]
    last_place = {}
    for index, event in enumerate(last_attempt):
        if isinstance(event, Place):
            last_place[event.oid] = index
    for index, event in enumerate(last_attempt):
        if isinstance(event, Eject):
            # Any ejection must be undone by a later re-placement.
            assert last_place[event.oid] > index


def test_attempt_starts_match_stats(machine):
    result, events = traced_run(build_figure1_loop(), machine)
    starts = [e for e in events if isinstance(e, AttemptStart)]
    assert len(starts) == result.stats.attempts
    assert all(s.algorithm == "slack" for s in starts)
    assert starts[0].ii == result.mii
    assert starts[0].n_ops == len(result.loop.real_ops)
    assert starts[0].budget > 0


def test_trace_counters_match_scheduler_stats(machine):
    result, events = traced_run(build_divider_loop(), machine)
    places = sum(1 for e in events if isinstance(e, Place))
    ejects = sum(1 for e in events if isinstance(e, Eject))
    forces = sum(1 for e in events if isinstance(e, ForcePlace))
    # Start's implicit placement is traced but not counted in stats.
    assert places == result.stats.placements + result.stats.attempts
    assert ejects == result.stats.ejections
    assert forces == result.stats.forced


def test_pressure_rejection_escalates_with_reason(machine):
    # A register budget of 1 is unsatisfiable at MII: the driver must
    # reject found schedules, emit AttemptFail + IIEscalate, and retry.
    options = SchedulerOptions(max_rr_pressure=1, max_attempts=3)
    result, events = traced_run(build_figure1_loop(), machine, options=options)
    assert not result.success
    fails = [e for e in events if isinstance(e, AttemptFail)]
    escalations = [e for e in events if isinstance(e, IIEscalate)]
    assert len(fails) == 3 and len(escalations) == 3
    assert all("register budget" in f.reason for f in fails)
    # Replay of a failed run ends with whatever the last attempt left:
    # the trace still replays without error.
    replay_times(events)


def test_schedule_found_event(machine):
    result, events = traced_run(build_figure1_loop(), machine)
    found = [e for e in events if isinstance(e, ScheduleFound)]
    assert len(found) == 1
    assert found[0].ii == result.schedule.ii
    assert found[0].span == result.schedule.span
    assert found[0].stages == result.schedule.stages


def test_events_have_monotonic_seq_and_ts(machine):
    _, events = traced_run(build_figure1_loop(), machine)
    seqs = [e.seq for e in events]
    assert seqs == list(range(len(events)))
    timestamps = [e.ts for e in events]
    assert timestamps == sorted(timestamps)


def test_event_dict_roundtrip(machine):
    _, events = traced_run(build_divider_loop(), machine)
    for event in events:
        clone = event_from_dict(event.to_dict())
        assert type(clone) is type(event)
        assert clone.to_dict() == event.to_dict()


def test_event_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown trace event"):
        event_from_dict({"kind": "not_a_kind"})


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
        ring.emit(Place(oid=oid, cycle=oid))
    assert ring.total == 7
    assert ring.dropped == 4
    assert [event.oid for event in ring.events()] == [4, 5, 6]
    # seq keeps counting across the wrap, so dumps name the drop count.
    assert [event.seq for event in ring.events()] == [4, 5, 6]


def test_flight_recorder_below_capacity_keeps_everything():
    ring = FlightRecorder(capacity=8)
    ring.emit(Place(oid=1, cycle=0))
    ring.emit(Eject(oid=1, cycle=0))
    assert ring.dropped == 0
    assert [type(event) for event in ring.events()] == [Place, Eject]


def test_flight_recorder_append_does_not_restamp():
    # append() shadows another tracer that already stamped seq/ts; the
    # ring must keep those stamps untouched (tee mode).
    ring = FlightRecorder(capacity=4)
    event = Place(oid=9, cycle=3)
    event.seq = 42
    ring.append(event)
    assert ring.events()[0].seq == 42


def test_flight_recorder_dump_is_json_safe():
    import json

    ring = FlightRecorder(capacity=4)
    ring.emit(JobStart(job=7, loop="ll3"))
    ring.emit(Place(oid=1, cycle=2))
    dump = ring.dump()
    clones = json.loads(json.dumps(dump))
    assert clones == dump
    assert clones[0]["kind"] == "job_start" and clones[0]["loop"] == "ll3"


def test_flight_recorder_shadows_a_real_run(machine):
    # Scheduling under the ring alone: same event stream as a full
    # tracer, truncated to the last `capacity` events.
    full = CollectingTracer()
    modulo_schedule(build_figure1_loop(), machine, observer=Observer(full))
    ring = FlightRecorder(capacity=16)
    modulo_schedule(build_figure1_loop(), machine, observer=Observer(ring))
    assert ring.total == len(full.events)
    tail = [type(event) for event in full.events[-16:]]
    assert [type(event) for event in ring.events()] == tail


def test_job_start_event_roundtrips():
    event = JobStart(job=3, loop="inner")
    clone = event_from_dict(event.to_dict())
    assert isinstance(clone, JobStart)
    assert clone.job == 3 and clone.loop == "inner"
