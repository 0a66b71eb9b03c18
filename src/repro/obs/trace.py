"""Scheduler trace events and the Tracer protocol.

The scheduling stack emits one event per *decision* — every placement,
ejection, forced placement, bounds recomputation, cap growth, II
escalation, and attempt outcome — so the paper's scheduler dynamics
(§4.2's ejection storms, §6's scheduling effort) become observable
instead of being summarized away into four counters.

Design rules:

* The hot path pays nothing by default.  Instrumented code holds an
  :class:`~repro.obs.observer.Observer`'s ``trace``, which is None
  unless a tracer was supplied, so the per-event cost of an untraced
  run is a single attribute test.
  ``benchmarks/bench_scheduler_speed.py::test_trace_overhead`` times
  that untraced run as its baseline and asserts only that the batch
  progress stream and the :class:`FlightRecorder` each add under 5%.
* An event is the dict its JSONL line holds, ``{"kind": ..., <fields>}``,
  from the emitter to every reader: :data:`EVENT_FIELDS` names each
  kind's fields.  The tracer stamps a monotonic sequence number
  ``seq`` on it (a :class:`CollectingTracer` also a ``perf_counter``
  timestamp ``ts``); emitters never look at the clock.  A batch trace
  record adds its ``loop`` and ``job``.
* A trace is *replayable*: :func:`replay_times` folds the place/eject
  stream of the final attempt back into the exact ``times`` dict of the
  schedule the run produced — the test suite uses this to prove the
  trace is a faithful record rather than advisory logging.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

#: Each event kind and its fields, in emission order.  ``eject``'s
#: ``cause`` is "force" (§4.4 forced placement ejected a blocker) or
#: "cap" (Stop was pushed past Lstart(Stop) and re-opened, §4.2);
#: ``force_place`` (step 3) follows its ejections and names them, and
#: the ``place`` with ``forced`` true commits the op.  ``job_start`` is
#: the batch service's breadcrumb, emitted into a job's flight recorder
#: before fault injection and scheduling, so even a job that dies before
#: its first scheduler decision leaves a post-mortem naming the victim.
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "attempt_start": ("algorithm", "ii", "n_ops", "budget"),
    "place": ("oid", "cycle", "forced"),
    "eject": ("oid", "cycle", "cause"),
    "force_place": ("oid", "cycle", "ejected"),
    "bounds_recompute": ("n_placed",),
    "cap_grow": ("old_cap", "new_cap"),
    "ii_escalate": ("old_ii", "new_ii", "reason"),
    "attempt_fail": ("ii", "reason"),
    "schedule_found": ("ii", "span", "stages"),
    "job_start": ("job", "loop"),
}


# ----------------------------------------------------------------------
# Tracers
# ----------------------------------------------------------------------
class Tracer:
    """Trace sink protocol: an ``emit`` method.

    ``None`` is the only "no tracer": instrumented code tests the
    observer's ``trace`` against None before building an event.  The
    base class itself is a sink that keeps nothing and stamps nothing:
    it turns a batch's job observation on when only
    ``BatchReport.trace_records`` are wanted.
    """

    def emit(self, event: dict) -> None:
        """Take one event; the base sink drops it untouched."""


class CollectingTracer(Tracer):
    """Accumulates events in memory, stamping ``seq`` and ``ts``."""

    def __init__(self) -> None:
        self.events: List[dict] = []
        self._seq = 0
        self._clock = time.perf_counter

    def emit(self, event: dict) -> None:
        event["seq"] = self._seq
        event["ts"] = self._clock()
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

    * ``emit`` stamps only ``seq`` (no ``perf_counter`` call): one
      modulo, one list store.  The trace_overhead bench asserts that it
      adds under 5% to an untraced run.
    * ``append`` stores a reference *without* stamping, so the ring
      can shadow a :class:`CollectingTracer` (which already stamped
      ``seq`` and ``ts``) without fighting over the keys.

    ``dump()`` copies the ring's events (oldest first), safe to pickle
    across the worker boundary and to serialize into progress logs.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"flight capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._ring: List[Optional[dict]] = [None] * capacity
        self._count = 0

    @property
    def total(self) -> int:
        """Events ever seen (>= len(events()) once the ring wraps)."""
        return self._count

    @property
    def dropped(self) -> int:
        """Events that fell off the front of the ring."""
        return max(0, self._count - self.capacity)

    def append(self, event: dict) -> None:
        """Keep a reference without stamping (tee behind another tracer)."""
        self._ring[self._count % self.capacity] = event
        self._count += 1

    def emit(self, event: dict) -> None:
        event["seq"] = self._count
        self.append(event)

    def events(self) -> List[dict]:
        """Ring contents, oldest to newest."""
        if self._count <= self.capacity:
            return list(self._ring[: self._count])
        pivot = self._count % self.capacity
        return self._ring[pivot:] + self._ring[:pivot]

    def dump(self) -> List[dict]:
        """Copies of the ring's events (what failure records carry), so
        a later re-stamp of a shared event cannot change a dump."""
        return [dict(event) for event in self.events()]


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def split_attempts(events: Iterable[dict]) -> List[List[dict]]:
    """Partition a trace into per-attempt event lists."""
    attempts: List[List[dict]] = []
    current: Optional[List[dict]] = None
    for event in events:
        if event["kind"] == "attempt_start":
            current = [event]
            attempts.append(current)
        elif current is not None:
            current.append(event)
    return attempts


def replay_times(events: Iterable[dict]) -> Dict[int, int]:
    """Fold the place/eject stream into the final attempt's times dict.

    Every ``attempt_start`` resets the partial schedule (the driver
    starts each II from scratch), so the result is the reconstruction of
    whatever the *last* attempt left placed — for a successful run, the
    exact ``Schedule.times`` mapping.  Over a flight-recorder tail,
    which may open mid-attempt, its keys are the ops seen placed and not
    ejected: the ops the scheduler was juggling when the job ended.
    """
    times: Dict[int, int] = {}
    for event in events:
        kind = event["kind"]
        if kind == "place":
            times[event["oid"]] = event["cycle"]
        elif kind == "eject":
            times.pop(event["oid"], None)
        elif kind == "attempt_start":
            times = {}
    return times
