"""Deterministic scoped-span profiler for the scheduling hot paths.

Where the tracer records *decisions* and the metrics registry records
*aggregates*, the profiler records *where the wall time goes*: nestable
named spans (``with prof.span("bounds.mindist"): ...``) accumulated
into a call tree keyed by span path, plus cheap iteration counters on
code that is too hot to wrap in a context manager.

Design rules:

* Spans are the only clock.  Every span times itself and exposes
  ``span.seconds`` once it exits, on any profiler, so code that needs
  a duration (``SchedulerStats``, ``LoopMetrics``, the ``phase.*``
  timers) reads it from the span that the profile also records, and
  the two can never disagree.
* Only an *enabled* profiler records.  The shared
  :data:`NULL_PROFILER` keeps no tree and no counters; it is an
  :class:`~repro.obs.observer.Observer`'s ``prof`` unless a profiler
  was given, so instrumented code calls ``prof.span(...)`` and
  ``prof.count(...)`` unconditionally; the null path costs a clock
  read pair per span and a no-op call per count.
* Span bookkeeping is O(1) per enter/exit, so enabling the profiler
  perturbs the measured program as little as possible.

The report comes in two shapes: :meth:`Profiler.snapshot` returns a
JSON-safe dict (what ``batch --profile-out`` writes and ``repro report
--profile`` reads) and :meth:`Profiler.report` renders an ASCII
self/cumulative table.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

#: Separator between nested span names in a span path.  Span *names*
#: are dotted ("bounds.mindist"); *paths* join the active stack, e.g.
#: "driver.attempt;driver.setup;bounds.mindist".
PATH_SEP = ";"


class _SpanStat:
    """Accumulated timing for one span path."""

    __slots__ = ("calls", "cum_seconds", "self_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.cum_seconds = 0.0
        self.self_seconds = 0.0


class _Span:
    """Context manager for one ``prof.span(name)`` entry; ``seconds``
    is its duration on the profiler's clock once it exits."""

    __slots__ = ("_prof", "_name", "_started", "seconds")

    def __init__(self, prof: "Profiler", name: str):
        self._prof = prof
        self._name = name

    def __enter__(self) -> "_Span":
        self._prof._enter(self._name)
        self._started = self._prof._clock()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self._prof._clock() - self._started
        self._prof._exit(self.seconds)


class Profiler:
    """Nestable scoped spans + counters, keyed by span path.

    Attributes:
        enabled: Whether this profiler records spans and counters (see
            module docstring).  Spans time themselves either way; an
            :class:`~repro.obs.observer.Observer` reads the flag to
            decide whether it records anything.
    """

    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._stats: Dict[str, _SpanStat] = {}
        self._counters: Dict[str, int] = {}
        #: Active frames: (path, child_seconds accumulated so far).
        self._stack: List[Tuple[str, float]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str) -> _Span:
        """Context manager timing one named (nestable) section."""
        return _Span(self, name)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump an iteration counter (for sites too hot for a span)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else ""
        path = f"{parent}{PATH_SEP}{name}" if parent else name
        self._stack.append((path, 0.0))

    def _exit(self, duration: float) -> None:
        path, child_seconds = self._stack.pop()
        stat = self._stats.get(path)
        if stat is None:
            stat = self._stats[path] = _SpanStat()
        stat.calls += 1
        stat.cum_seconds += duration
        stat.self_seconds += max(0.0, duration - child_seconds)
        if self._stack:
            parent_path, parent_children = self._stack[-1]
            self._stack[-1] = (parent_path, parent_children + duration)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe dump: spans keyed by path, and counters.

        Schema (see DESIGN.md): ``spans[path] = {calls, cum_seconds,
        self_seconds}``; paths join nested span names with ``";"``.
        """
        return {
            "spans": {
                path: {
                    "calls": stat.calls,
                    "cum_seconds": stat.cum_seconds,
                    "self_seconds": stat.self_seconds,
                }
                for path, stat in sorted(self._stats.items())
            },
            "counters": dict(sorted(self._counters.items())),
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` dict (e.g. from a worker process) in.

        Span stats and counters accumulate.
        """
        for path, entry in snapshot.get("spans", {}).items():
            mine = self._stats.get(path)
            if mine is None:
                mine = self._stats[path] = _SpanStat()
            mine.calls += entry["calls"]
            mine.cum_seconds += entry["cum_seconds"]
            mine.self_seconds += entry["self_seconds"]
        for name, value in snapshot.get("counters", {}).items():
            self.count(name, value)

    def report(self, limit: int = 0) -> str:
        """ASCII self/cumulative table in call-tree order.

        Lexical path order lists every parent span directly above its
        children (a path is a prefix of its children's paths), so the
        indentation reads as a call tree.
        """
        lines = [
            "profile (call-tree order):",
            f"  {'span path':<44} {'calls':>8} {'self ms':>10} {'cum ms':>10}",
        ]
        ordered = sorted(self._stats.items())
        if limit:
            ordered = ordered[:limit]
        for path, stat in ordered:
            indent = "  " * path.count(PATH_SEP)
            name = indent + path.rsplit(PATH_SEP, 1)[-1]
            lines.append(
                f"  {name:<44} {stat.calls:>8} "
                f"{stat.self_seconds * 1e3:>10.2f} {stat.cum_seconds * 1e3:>10.2f}"
            )
        if not self._stats:
            lines.append("  (no spans recorded)")
        if self._counters:
            lines.append("  counters:")
            for name, value in sorted(self._counters.items()):
                lines.append(f"    {name:<42} {value}")
        return "\n".join(lines)


class NullProfiler(Profiler):
    """The default: spans still time themselves, but nothing is
    recorded, so one stateless instance serves every caller."""

    enabled = False

    def __init__(self) -> None:  # pragma: no cover - trivial
        super().__init__()

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def _enter(self, name: str) -> None:
        pass

    def _exit(self, duration: float) -> None:
        pass


#: Shared default instance (stateless: never recorded into).
NULL_PROFILER = NullProfiler()
