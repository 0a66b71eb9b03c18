"""Typed scheduler trace events and the Tracer protocol.

The scheduling stack emits one event per *decision* — every placement,
ejection, forced placement, bounds recomputation, cap growth, II
escalation, and attempt outcome — so the paper's scheduler dynamics
(§4.2's ejection storms, §6's scheduling effort) become observable
instead of being summarized away into four counters.

Design rules:

* The hot path pays nothing by default.  Instrumented code holds an
  :class:`~repro.obs.observer.Observer`'s ``trace``, which is None
  unless a tracer with ``enabled=True`` was supplied, so the per-event
  cost of the default :class:`NullTracer` is a single attribute test.
  ``benchmarks/bench_scheduler_speed.py::test_trace_overhead`` times
  that untraced run as its baseline and asserts only that the batch
  progress stream and the :class:`FlightRecorder` each add under 5%.
* Events are plain dataclasses with a class-level ``kind`` tag.  The
  tracer stamps a monotonic sequence number and a ``perf_counter``
  timestamp on emission; events never look at the clock themselves.
* A trace is *replayable*: :func:`replay_times` folds the Place/Eject
  stream of the final attempt back into the exact ``times`` dict of the
  schedule the run produced — the test suite uses this to prove the
  trace is a faithful record rather than advisory logging.
"""

from __future__ import annotations

import dataclasses
import time
from typing import ClassVar, Dict, Iterable, List, Optional, Tuple


@dataclasses.dataclass
class TraceEvent:
    """Base class: ``seq``/``ts`` are stamped by the tracer on emit."""

    kind: ClassVar[str] = "event"

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["kind"] = self.kind
        payload["seq"] = getattr(self, "seq", 0)
        payload["ts"] = getattr(self, "ts", 0.0)
        return payload


@dataclasses.dataclass
class AttemptStart(TraceEvent):
    """One fixed-II attempt begins (driver loop, §4.2 step 6)."""

    kind: ClassVar[str] = "attempt_start"
    algorithm: str
    ii: int
    n_ops: int
    budget: int


@dataclasses.dataclass
class Place(TraceEvent):
    """An operation was committed to an issue cycle."""

    kind: ClassVar[str] = "place"
    oid: int
    cycle: int
    forced: bool = False


@dataclasses.dataclass
class Eject(TraceEvent):
    """A placed operation was removed from the partial schedule.

    ``cause`` is "force" (§4.4 forced placement ejected a blocker) or
    "cap" (Stop was pushed past Lstart(Stop) and re-opened, §4.2).
    """

    kind: ClassVar[str] = "eject"
    oid: int
    cycle: int
    cause: str = "force"


@dataclasses.dataclass
class ForcePlace(TraceEvent):
    """Step 3: no conflict-free slot existed; blockers were ejected.

    The subsequent :class:`Place` event (with ``forced=True``) commits
    the operation; this event records *why* — which ops got ejected.
    """

    kind: ClassVar[str] = "force_place"
    oid: int
    cycle: int
    ejected: List[int] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class BoundsRecompute(TraceEvent):
    """Full O(p*n) Estart/Lstart recomputation (after ejections)."""

    kind: ClassVar[str] = "bounds_recompute"
    n_placed: int


@dataclasses.dataclass
class CapGrow(TraceEvent):
    """Lstart(Stop) grew because Estart(Stop) exceeded the cap (§4.2)."""

    kind: ClassVar[str] = "cap_grow"
    old_cap: int
    new_cap: int


@dataclasses.dataclass
class IIEscalate(TraceEvent):
    """The driver gave up on an II and escalated (§4.2 step 6)."""

    kind: ClassVar[str] = "ii_escalate"
    old_ii: int
    new_ii: int
    reason: str = ""


@dataclasses.dataclass
class AttemptFail(TraceEvent):
    """The attempt at this II failed (budget, fit, or pressure)."""

    kind: ClassVar[str] = "attempt_fail"
    ii: int
    reason: str = ""


@dataclasses.dataclass
class ScheduleFound(TraceEvent):
    """A feasible schedule was accepted at this II."""

    kind: ClassVar[str] = "schedule_found"
    ii: int
    span: int
    stages: int


@dataclasses.dataclass
class JobStart(TraceEvent):
    """Service-level breadcrumb: a worker began executing a batch job.

    Emitted into the flight recorder before fault injection and
    scheduling, so even a job that dies before its first scheduler
    decision leaves a non-empty post-mortem dump naming the victim.
    """

    kind: ClassVar[str] = "job_start"
    job: int
    loop: str


#: kind tag -> event class, for deserialization (see obs.export).
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        AttemptStart,
        Place,
        Eject,
        ForcePlace,
        BoundsRecompute,
        CapGrow,
        IIEscalate,
        AttemptFail,
        ScheduleFound,
        JobStart,
    )
}


def event_from_dict(payload: dict) -> TraceEvent:
    """Rebuild a typed event from its ``to_dict`` representation."""
    data = dict(payload)
    kind = data.pop("kind")
    seq = data.pop("seq", 0)
    ts = data.pop("ts", 0.0)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    event = cls(**data)
    event.seq = seq
    event.ts = ts
    return event


# ----------------------------------------------------------------------
# Tracers
# ----------------------------------------------------------------------
class Tracer:
    """Trace sink protocol: ``enabled`` flag plus an ``emit`` method.

    :class:`~repro.obs.observer.Observer` normalizes a disabled tracer
    to ``None`` up front, so ``emit`` is only ever called when
    ``enabled`` is True.  The base class itself is an enabled sink that
    keeps nothing and stamps nothing: it turns a batch's job observation
    on when only ``BatchReport.trace_records`` are wanted.
    """

    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:
        """Take one event; the base sink drops it untouched."""


class NullTracer(Tracer):
    """The zero-overhead default: never called, never stores anything."""

    enabled = False


#: Shared default instance (stateless, safe to reuse everywhere).
NULL_TRACER = NullTracer()


class CollectingTracer(Tracer):
    """Accumulates events in memory, stamping seq numbers + timestamps."""

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []
        self._seq = 0
        self._clock = time.perf_counter

    def emit(self, event: TraceEvent) -> None:
        event.seq = self._seq
        event.ts = self._clock()
        self._seq += 1
        self.events.append(event)


#: Default flight-recorder ring capacity: big enough to cover an
#: ejection cascade plus the attempt header, small enough that a dump
#: pickles/serializes in microseconds.
DEFAULT_FLIGHT_CAPACITY = 64


class FlightRecorder(Tracer):
    """A bounded ring of the last N events, kept at near-zero cost.

    The batch service runs every job under one of these so that a
    crash, timeout, or quarantine can attach the final scheduler
    decisions to the failure record — a flight recorder, not a full
    trace.  Two cost rules keep it on by default:

    * ``emit`` stamps only a sequence number (no ``perf_counter``
      call): one modulo, one list store.  The trace_overhead bench
      asserts that it adds under 5% to an untraced run.
    * ``append`` stores a reference *without* stamping, so the ring
      can shadow a :class:`CollectingTracer` (which already stamped
      seq/ts) without fighting over the fields.

    ``dump()`` returns plain dicts (oldest first), safe to pickle
    across the worker boundary and to serialize into progress logs.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: List[Optional[TraceEvent]] = [None] * capacity
        self._count = 0

    @property
    def total(self) -> int:
        """Events ever seen (>= len(events()) once the ring wraps)."""
        return self._count

    @property
    def dropped(self) -> int:
        """Events that fell off the front of the ring."""
        return max(0, self._count - self.capacity)

    def append(self, event: TraceEvent) -> None:
        """Keep a reference without stamping (tee behind another tracer)."""
        self._ring[self._count % self.capacity] = event
        self._count += 1

    def emit(self, event: TraceEvent) -> None:
        event.seq = self._count
        self.append(event)

    def events(self) -> List[TraceEvent]:
        """Ring contents, oldest to newest."""
        if self._count <= self.capacity:
            return list(self._ring[: self._count])
        pivot = self._count % self.capacity
        return self._ring[pivot:] + self._ring[:pivot]

    def dump(self) -> List[dict]:
        """The ring as JSON-safe dicts (what failure records carry)."""
        return [event.to_dict() for event in self.events()]


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def split_attempts(events: Iterable[TraceEvent]) -> List[List[TraceEvent]]:
    """Partition a trace into per-attempt event lists."""
    attempts: List[List[TraceEvent]] = []
    current: Optional[List[TraceEvent]] = None
    for event in events:
        if isinstance(event, AttemptStart):
            current = [event]
            attempts.append(current)
        elif current is not None:
            current.append(event)
    return attempts


def replay_times(events: Iterable[TraceEvent]) -> Dict[int, int]:
    """Fold the Place/Eject stream into the final attempt's times dict.

    Every :class:`AttemptStart` resets the partial schedule (the driver
    starts each II from scratch), so the result is the reconstruction of
    whatever the *last* attempt left placed — for a successful run, the
    exact ``Schedule.times`` mapping.
    """
    times: Dict[int, int] = {}
    for event in events:
        if isinstance(event, AttemptStart):
            times = {}
        elif isinstance(event, Place):
            times[event.oid] = event.cycle
        elif isinstance(event, Eject):
            times.pop(event.oid, None)
    return times


def surviving_places(events: Iterable[TraceEvent]) -> List[Place]:
    """Final attempt's Place events not undone by a later Eject.

    The trace invariant (tested in ``tests/obs``): for a successful run
    these survivors map one-to-one onto the final schedule.
    """
    attempts = split_attempts(events)
    if not attempts:
        return []
    last = attempts[-1]
    survivors: Dict[int, Tuple[int, Place]] = {}
    for index, event in enumerate(last):
        if isinstance(event, Place):
            survivors[event.oid] = (index, event)
        elif isinstance(event, Eject) and event.oid in survivors:
            del survivors[event.oid]
    return [place for _, place in sorted(survivors.values())]
