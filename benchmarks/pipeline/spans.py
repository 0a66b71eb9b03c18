"""Spans recorded from outside the program, around each public call.

The benchmark opens one root span per loop (or per service request);
every public ``repro`` call made for it becomes a child span whose
``layer`` is the repro module it belongs to.  Spans stay in memory and
are exported as Chrome trace-event JSON when the run ends.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable, Dict, List, NamedTuple, Optional


class Span(NamedTuple):
    name: str  # "<layer>.<function>", or the root's name ("loop", "direct")
    layer: Optional[str]  # None for root spans
    start: float  # perf_counter seconds
    end: float
    span_id: int
    parent: Optional[int]
    trace_id: str  # "<workload>/<pass>/<loop index>"


def plain_call(layer: str, fn: Callable, *args, **kwargs):
    """The untraced hook: call straight through."""
    return fn(*args, **kwargs)


class Recorder:
    """Collects spans; ``call`` is the traced counterpart of ``plain_call``."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._root: Optional[int] = None
        self._trace = ""

    def open_root(self, trace_id: str) -> None:
        """Make the next calls children of a root span closed later."""
        self._root = next(self._ids)
        self._trace = trace_id

    def close_root(self, name: str, start: float, end: float) -> None:
        self.spans.append(Span(name, None, start, end, self._root, None, self._trace))
        self._root = None

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        span_id = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(
                Span(f"{layer}.{fn.__name__}", layer, start, end, span_id,
                     self._root, self._trace)
            )


def layer_totals(spans: List[Span]) -> Dict[str, List[float]]:
    """``{layer: [busy seconds, calls]}``.  Layer spans never nest inside
    each other, so a layer's self time is the sum of its span durations."""
    totals: Dict[str, List[float]] = {}
    for span in spans:
        if span.layer is not None:
            entry = totals.setdefault(span.layer, [0.0, 0])
            entry[0] += span.end - span.start
            entry[1] += 1
    return totals


def coverage(spans: List[Span]) -> float:
    """Σ layer-span time inside "loop" roots ÷ Σ "loop" root time."""
    loops = {span.span_id: span for span in spans if span.name == "loop"}
    total = sum(span.end - span.start for span in loops.values())
    covered = sum(
        span.end - span.start
        for span in spans
        if span.layer is not None and span.parent in loops
    )
    return covered / total if total > 0 else 0.0


def chrome_events(spans: List[Span], origin: float, pid: int) -> List[dict]:
    """Chrome trace-event "complete" events, microseconds from ``origin``."""
    return [
        {
            "name": span.name,
            "cat": span.layer or "root",
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": pid,
            "tid": 0,
            "args": {
                "span_id": span.span_id,
                "parent": span.parent,
                "trace_id": span.trace_id,
            },
        }
        for span in spans
    ]
