"""Lightweight metrics: counters, gauges, timers, histograms.

A :class:`MetricsRegistry` is an opt-in companion to the tracer: where
the trace records individual decisions, metrics aggregate — window-scan
lengths, ejections per operation, MRT occupancy per resource, per-phase
wall time.  Instruments are created on first use and addressed by a
dotted name, so call sites stay one-liners:

    metrics.counter("scheduler.attempts").inc()
    metrics.histogram("scan.window_length").record(scanned)
    metrics.timer("phase.mindist").add(span.seconds)

Timers only accumulate durations they are handed; the duration comes
from a :mod:`repro.obs.prof` span, the one clock of the scheduling
path.

Everything is in-process and dependency-free; ``snapshot()`` returns a
plain dict (JSON-safe) and ``render()`` a human-readable block used by
the CLI's ``--explain`` output.
"""

from __future__ import annotations

from typing import Dict, List, Optional


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


class Timer:
    """Accumulated wall time over any number of timed sections."""

    __slots__ = ("seconds", "count")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.count = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.count += 1


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


class MetricsRegistry:
    """Named instruments, created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, Timer] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def timer(self, name: str) -> Timer:
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = Timer()
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def snapshot(self) -> dict:
        """JSON-safe dump of every instrument."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "timers": {
                name: {"seconds": t.seconds, "count": t.count}
                for name, t in sorted(self._timers.items())
            },
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
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "timers": {
                name: {"seconds": t.seconds, "count": t.count}
                for name, t in sorted(self._timers.items())
            },
            "histogram_values": {
                name: list(h.values) for name, h in sorted(self._histograms.items())
            },
        }

    def merge_dump(self, dump: dict) -> None:
        """Fold a :meth:`dump` (typically from a worker process) in.

        Counters and timers accumulate, histograms extend with the raw
        values, gauges are last-write-wins (callers merge in submission
        order, so the result is deterministic).
        """
        for name, value in dump.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in dump.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, entry in dump.get("timers", {}).items():
            timer = self.timer(name)
            timer.seconds += entry["seconds"]
            timer.count += entry["count"]
        for name, values in dump.get("histogram_values", {}).items():
            histogram = self.histogram(name)
            for value in values:
                histogram.record(value)

    def render(self) -> str:
        """Readable block: one line per instrument."""
        lines = ["metrics:"]
        for name, counter in sorted(self._counters.items()):
            lines.append(f"  {name:<34} {counter.value}")
        for name, gauge in sorted(self._gauges.items()):
            lines.append(f"  {name:<34} {gauge.value:.3f}")
        for name, timer in sorted(self._timers.items()):
            lines.append(f"  {name:<34} {timer.seconds * 1e3:.2f} ms over {timer.count} section(s)")
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


def record_mrt_occupancy(metrics: Optional[MetricsRegistry], schedule) -> None:
    """Gauge the fraction of each unit instance's II rows that are busy.

    Read from the rows of the table the finished schedule fills
    (`Schedule.resource_table`), the rows the explain grid shows, so it
    can be recorded after the fact.
    """
    if metrics is None:
        return
    machine, ii = schedule.machine, schedule.ii
    for (class_index, instance), cells in schedule.resource_table().rows().items():
        name = machine.unit_classes[class_index].name
        metrics.gauge(f"mrt.occupancy.{name}[{instance}]").set((ii - cells.count(-1)) / ii)
