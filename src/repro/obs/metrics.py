"""One recorder for the scheduling path: spans, counters, gauges, histograms.

Where the tracer records individual *decisions*, a
:class:`MetricsRegistry` records aggregates and where the wall time
goes: nestable named spans accumulated into a call tree keyed by span
path, and instruments addressed by a dotted name and created on first
use, so call sites stay one-liners:

    with metrics.span("bounds.mindist") as span: ...
    metrics.counter("scheduler.attempts").inc()
    metrics.histogram("scheduler.scan_window_length").record(scanned)

Design rules:

* Spans are the only clock.  Every span times itself and exposes
  ``span.seconds`` once it exits, on any registry, so code that needs a
  duration (``SchedulerStats``, ``LoopMetrics``,
  ``BatchReport.wall_seconds``) reads it from the span that the
  registry also records, and the two can never disagree.
* Only an *enabled* registry records.  The shared :data:`NULL_METRICS`
  keeps no spans and hands out instruments it does not keep; it is an
  :class:`~repro.obs.observer.Observer`'s ``metrics`` unless a registry
  was given, so instrumented code calls ``metrics.span(...)``
  unconditionally (the null path costs a clock read pair) and tests
  ``metrics.enabled`` before work that only feeds an instrument.
* Span bookkeeping is O(1) per enter/exit, so recording perturbs the
  measured program as little as possible.

Everything is in-process and dependency-free.  :meth:`snapshot` returns
a JSON-safe summary, :meth:`dump` the full-fidelity form that
:meth:`merge_dump` folds in across processes, :meth:`render` the
deterministic block ``--explain`` prints (no wall-clock values), and
:meth:`report` the span table.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Tuple

#: Separator between nested span names in a span path.  Span *names*
#: are dotted ("bounds.mindist"); *paths* join the active stack, e.g.
#: "driver.attempt;driver.setup;bounds.mindist".
PATH_SEP = ";"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Distribution of observed values (kept exactly; corpora are small).

    Quantiles are computed over the *sorted* recorded values (nearest
    rank), so they are independent of recording order — merging two
    worker dumps in either order exports identical p50/p90/p99.  The
    exact-values representation is what makes that guarantee trivial; a
    sketch would have to prove mergeability instead.
    """

    __slots__ = ("values",)

    #: The latency quantiles exported everywhere (summary, batch exit
    #: line, metrics dump, HTML report).
    EXPORTED_QUANTILES = (0.50, 0.90, 0.99)

    def __init__(self) -> None:
        self.values: List[float] = []

    def record(self, value: float) -> None:
        self.values.append(value)

    @property
    def count(self) -> int:
        return len(self.values)

    def percentile(self, fraction: float) -> float:
        if not self.values:
            return 0.0
        ordered = sorted(self.values)
        index = min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))
        return ordered[index]

    def quantiles(self, fractions=EXPORTED_QUANTILES) -> Dict[str, float]:
        """``{"p50": ..., "p90": ..., "p99": ...}`` over sorted values."""
        return {
            f"p{int(fraction * 100)}": self.percentile(fraction)
            for fraction in fractions
        }

    def summary(self) -> dict:
        if not self.values:
            return {
                "count": 0, "min": 0, "max": 0, "mean": 0.0,
                "p50": 0, "p90": 0, "p99": 0,
            }
        return {
            "count": len(self.values),
            "min": min(self.values),
            "max": max(self.values),
            "mean": sum(self.values) / len(self.values),
            **self.quantiles(),
        }


class _SpanStat:
    """Accumulated timing for one span path."""

    __slots__ = ("calls", "cum_seconds", "self_seconds")

    def __init__(self) -> None:
        self.calls = 0
        self.cum_seconds = 0.0
        self.self_seconds = 0.0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "cum_seconds": self.cum_seconds,
            "self_seconds": self.self_seconds,
        }


class _Span:
    """Context manager for one ``metrics.span(name)`` entry; ``seconds``
    is its duration on the registry's clock once it exits."""

    __slots__ = ("_registry", "_name", "_started", "seconds")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self) -> "_Span":
        self._registry._enter(self._name)
        self._started = self._registry._clock()
        return self

    def __exit__(self, *exc) -> None:
        self.seconds = self._registry._clock() - self._started
        self._registry._exit(self.seconds)


class MetricsRegistry:
    """Spans keyed by path and named instruments, created on first use.

    Attributes:
        enabled: Whether this registry keeps what it is given (see the
            module docstring).  Spans time themselves either way.
    """

    enabled: bool = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, _SpanStat] = {}
        #: Active frames: (path, child_seconds accumulated so far).
        self._stack: List[Tuple[str, float]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _instrument(self, store: dict, kind: type, name: str):
        instrument = store.get(name)
        if instrument is None:
            instrument = store[name] = kind()
        return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(self._counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(self._gauges, Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._instrument(self._histograms, Histogram, name)

    def span(self, name: str) -> _Span:
        """Context manager timing one named (nestable) section."""
        return _Span(self, name)

    def _enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else ""
        path = f"{parent}{PATH_SEP}{name}" if parent else name
        self._stack.append((path, 0.0))

    def _exit(self, duration: float) -> None:
        path, child_seconds = self._stack.pop()
        stat = self._spans.get(path)
        if stat is None:
            stat = self._spans[path] = _SpanStat()
        stat.calls += 1
        stat.cum_seconds += duration
        stat.self_seconds += max(0.0, duration - child_seconds)
        if self._stack:
            parent_path, parent_children = self._stack[-1]
            self._stack[-1] = (parent_path, parent_children + duration)

    # ------------------------------------------------------------------
    # Reporting and merging
    # ------------------------------------------------------------------
    def _common(self) -> dict:
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "spans": {path: s.as_dict() for path, s in sorted(self._spans.items())},
        }

    def snapshot(self) -> dict:
        """JSON-safe summary: counters, gauges, histogram summaries and
        spans (``spans[path] = {calls, cum_seconds, self_seconds}``)."""
        return {
            **self._common(),
            "histograms": {
                name: h.summary() for name, h in sorted(self._histograms.items())
            },
        }

    def dump(self) -> dict:
        """Full-fidelity dump for cross-process merging.

        Unlike :meth:`snapshot` (which summarizes histograms for human
        and JSON consumption), ``dump`` keeps raw histogram values so a
        parent process can fold a worker's registry into its own without
        losing distribution data.  Inverse: :meth:`merge_dump`.
        """
        return {
            **self._common(),
            "histogram_values": {
                name: list(h.values) for name, h in sorted(self._histograms.items())
            },
        }

    def merge_dump(self, dump: dict) -> None:
        """Fold a :meth:`dump` (typically from a worker process) in.

        Counters and span stats accumulate by name and path, histograms
        extend with the raw values, gauges are last-write-wins (callers
        merge in submission order, so the result is deterministic).
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, values in dump.get("histogram_values", {}).items():
            self.histogram(name).values.extend(values)
        for path, entry in dump.get("spans", {}).items():
            stat = self._spans.get(path)
            if stat is None:
                stat = self._spans[path] = _SpanStat()
            stat.calls += entry["calls"]
            stat.cum_seconds += entry["cum_seconds"]
            stat.self_seconds += entry["self_seconds"]

    def render(self) -> str:
        """Readable block, one line per instrument; spans (wall time) are
        left to :meth:`report`, so the same run renders the same bytes."""
        lines = ["metrics:"]
        for name, counter in sorted(self._counters.items()):
            lines.append(f"  {name:<34} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            lines.append(f"  {name:<34} {gauge.value:.3f}")
        for name, histogram in sorted(self._histograms.items()):
            s = histogram.summary()
            lines.append(
                f"  {name:<34} n={s['count']} min={s['min']:g} "
                f"p50={s['p50']:g} p90={s['p90']:g} p99={s['p99']:g} "
                f"max={s['max']:g} mean={s['mean']:.2f}"
            )
        if len(lines) == 1:
            lines.append("  (no instruments recorded)")
        return "\n".join(lines)

    def report(self, limit: int = 0) -> str:
        """ASCII self/cumulative span table in call-tree order.

        Lexical path order lists every parent span directly above its
        children (a path is a prefix of its children's paths), so the
        indentation reads as a call tree.
        """
        lines = [
            "spans (call-tree order):",
            f"  {'span path':<44} {'calls':>8} {'self ms':>10} {'cum ms':>10}",
        ]
        ordered = sorted(self._spans.items())
        if limit:
            ordered = ordered[:limit]
        for path, stat in ordered:
            indent = "  " * path.count(PATH_SEP)
            name = indent + path.rsplit(PATH_SEP, 1)[-1]
            lines.append(
                f"  {name:<44} {stat.calls:>8} "
                f"{stat.self_seconds * 1e3:>10.2f} {stat.cum_seconds * 1e3:>10.2f}"
            )
        if not self._spans:
            lines.append("  (no spans recorded)")
        return "\n".join(lines)


class _NullRegistry(MetricsRegistry):
    """The default: spans still time themselves, and instruments are
    handed out but not kept, so one stateless instance serves every
    caller."""

    enabled = False

    def _instrument(self, store: dict, kind: type, name: str):
        return kind()

    def _enter(self, name: str) -> None:
        pass

    def _exit(self, duration: float) -> None:
        pass


#: Shared disabled registry (stateless: never recorded into).
NULL_METRICS = _NullRegistry()


def record_mrt_occupancy(metrics: MetricsRegistry, schedule) -> None:
    """Record the fraction of each unit instance's II rows that are busy
    as one value of its ``mrt.occupancy.<unit>[i]`` histogram, so a
    batch's merged registry holds one value per scheduled loop.

    Read from the rows of the table the finished schedule fills
    (`Schedule.resource_table`), the rows the explain grid shows, so it
    can be recorded after the fact.
    """
    if not metrics.enabled:
        return
    machine, ii = schedule.machine, schedule.ii
    for (class_index, instance), cells in schedule.resource_table().rows().items():
        name = machine.unit_classes[class_index].name
        metrics.histogram(f"mrt.occupancy.{name}[{instance}]").record(
            (ii - cells.count(-1)) / ii
        )
