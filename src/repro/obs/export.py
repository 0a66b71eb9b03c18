"""Trace serialization: JSONL and Chrome trace-event format.

JSONL is the one trace file format, written and read here for the
single-loop ``--trace``, ``repro batch --trace`` (whose records add
their ``loop`` and ``job``) and ``repro report --trace``: one event
dict per line, exactly as the tracer holds it, so :func:`load_jsonl`
returns the events :func:`write_jsonl` was given (the replay tests rely
on this).

The Chrome export targets ``chrome://tracing`` / Perfetto's legacy JSON
importer: each scheduling attempt becomes a complete ("X") duration
slice, every scheduler decision an instant ("i") event with its payload
in ``args``, and the number of currently placed operations a counter
("C") track — which renders the §4.2 ejection storms as a sawtooth.
"""

from __future__ import annotations

import json
from typing import Iterable, List, Optional

from repro.obs.trace import EVENT_FIELDS

#: Keys a tracer stamps (``seq`` always, ``ts`` when collecting) or a
#: batch trace adds (``loop``, ``job``) next to an event's fields.
_STAMPS = frozenset(("seq", "ts", "loop", "job"))


def to_jsonl(events: Iterable[dict]) -> str:
    """One JSON object per line, in emission order."""
    return "\n".join(json.dumps(event, sort_keys=True) for event in events)


def write_jsonl(events: Iterable[dict], path: str) -> None:
    with open(path, "w") as handle:
        text = to_jsonl(events)
        if text:
            handle.write(text + "\n")


def _record_problem(record) -> Optional[str]:
    """Why ``record`` is not a trace event, or None when it is one."""
    if not isinstance(record, dict):
        return "not a JSON object"
    kind = record.get("kind")
    fields = EVENT_FIELDS.get(kind) if isinstance(kind, str) else None
    if fields is None:
        return f"unknown trace event kind {kind!r}"
    keys = record.keys() - {"kind"}
    missing = sorted({"seq", *fields} - keys)
    if missing:
        return f"{kind} event lacks {', '.join(missing)}"
    extra = sorted(keys - _STAMPS - set(fields))
    if extra:
        return f"{kind} event has unknown field(s) {', '.join(extra)}"
    return None


def load_jsonl(path: str) -> List[dict]:
    """Inverse of :func:`write_jsonl`: the event dicts, one per line.

    A line that is not a JSON object, names a kind :data:`EVENT_FIELDS`
    does not list, or lacks or adds a field (beyond ``seq``, ``ts``,
    ``loop`` and ``job``) raises ``ValueError`` naming ``path:line``.
    """
    events: List[dict] = []
    with open(path) as handle:
        for number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: not JSON: {exc}") from None
            problem = _record_problem(record)
            if problem is not None:
                raise ValueError(f"{path}:{number}: {problem}")
            events.append(record)
    return events


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
_PID = 1
_TID_SCHEDULER = 1


def to_chrome_trace(events: Iterable[dict]) -> dict:
    """Build the ``{"traceEvents": [...]}`` JSON object."""
    events = list(events)
    # Timestamps relative to the first event, in microseconds.
    base = events[0].get("ts", 0.0) if events else 0.0
    trace: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": _TID_SCHEDULER,
            "args": {"name": "repro modulo scheduler"},
        }
    ]
    placed = 0
    open_attempt = None  # (start_event, start_us)
    for event in events:
        kind = event["kind"]
        ts_us = max(0.0, (event.get("ts", 0.0) - base) * 1e6)
        if kind == "attempt_start":
            placed = 0
            open_attempt = (event, ts_us)
            continue
        if kind in ("attempt_fail", "schedule_found") and open_attempt is not None:
            start_event, start_us = open_attempt
            outcome = "ok" if kind == "schedule_found" else "fail"
            trace.append(
                {
                    "name": f"attempt II={start_event['ii']} [{outcome}]",
                    "cat": "attempt",
                    "ph": "X",
                    "ts": start_us,
                    "dur": max(1.0, ts_us - start_us),
                    "pid": _PID,
                    "tid": _TID_SCHEDULER,
                    "args": event,
                }
            )
            open_attempt = None
        if kind == "place":
            placed += 1
        elif kind == "eject":
            placed -= 1
        trace.append(
            {
                "name": kind,
                "cat": "scheduler",
                "ph": "i",
                "s": "t",
                "ts": ts_us,
                "pid": _PID,
                "tid": _TID_SCHEDULER,
                "args": event,
            }
        )
        if kind in ("place", "eject", "ii_escalate"):
            trace.append(
                {
                    "name": "placed ops",
                    "ph": "C",
                    "ts": ts_us,
                    "pid": _PID,
                    "args": {"placed": 0 if kind == "ii_escalate" else placed},
                }
            )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(events: Iterable[dict], path: str) -> None:
    with open(path, "w") as handle:
        json.dump(to_chrome_trace(events), handle)
