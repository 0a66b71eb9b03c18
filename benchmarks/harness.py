"""Unified measurement harness for the table/figure benchmark suite.

This is the pytest-side face of :mod:`repro.obs.bench`: one shared,
cached corpus-measurement layer that every ``bench_*.py`` script pulls
its data from.  Each cached entry is a :class:`MeasuredRun` carrying
the per-loop metrics *and* a profiler span breakdown
(:mod:`repro.obs.prof`), so a benchmark that reports "time" can say
where the time went instead of quoting one opaque wall number.

The corpus defaults to 300 loops for quick runs; set
``REPRO_CORPUS=1525`` to reproduce at the paper's full scale.  Results
are cached per (size, algorithm, options) so the figure benchmarks —
which need both schedulers' results — do not pay for re-measuring what
an earlier benchmark already produced.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, List, Optional, Tuple

from repro.core import SchedulerOptions
from repro.experiments import LoopMetrics, run_corpus
from repro.machine import cydra5
from repro.obs.bench import Scenario, run_scenario, scenario_registry
from repro.obs.observer import Observer
from repro.obs.prof import Profiler
from repro.workloads import default_corpus_size, paper_corpus

_MACHINE = cydra5()
_CORPUS_CACHE: Dict[int, list] = {}

OUT_DIR = os.path.join(os.path.dirname(__file__), "out")


@dataclasses.dataclass
class MeasuredRun:
    """One cached corpus measurement: metrics + where the time went."""

    metrics: List[LoopMetrics]
    profile: dict  # Profiler.snapshot(): spans, counters, peak memory
    wall_seconds: float

    def span_seconds(self, path: str) -> float:
        """Cumulative seconds of one span path ('' -> 0.0)."""
        entry = self.profile.get("spans", {}).get(path)
        return entry["cum_seconds"] if entry else 0.0


_RUN_CACHE: Dict[Tuple[int, str, Tuple], MeasuredRun] = {}


def corpus_size() -> int:
    return default_corpus_size(300)


def corpus(size: int = None):
    size = size or corpus_size()
    if size not in _CORPUS_CACHE:
        _CORPUS_CACHE[size] = paper_corpus(size)
    return _CORPUS_CACHE[size]


def machine():
    return _MACHINE


def options_key(options: Optional[SchedulerOptions]) -> Tuple:
    if options is None:
        return ()
    return (
        options.budget_ratio,
        options.max_attempts,
        options.ii_step_percent,
        options.bidirectional,
        options.critical_threshold,
    )


def measured_run(
    algorithm: str, options: SchedulerOptions = None, size: int = None
) -> MeasuredRun:
    """Cached profiled corpus measurement for one configuration."""
    size = size or corpus_size()
    key = (size, algorithm, options_key(options))
    run = _RUN_CACHE.get(key)
    if run is None:
        profiler = Profiler()
        started = time.perf_counter()
        metrics = run_corpus(
            corpus(size), _MACHINE, algorithm=algorithm, options=options,
            observer=Observer(prof=profiler),
        )
        run = _RUN_CACHE[key] = MeasuredRun(
            metrics=metrics,
            profile=profiler.snapshot(),
            wall_seconds=time.perf_counter() - started,
        )
    return run


def measured(
    algorithm: str, options: SchedulerOptions = None, size: int = None
) -> List[LoopMetrics]:
    """The metrics of :func:`measured_run` (the historical interface)."""
    return measured_run(algorithm, options, size).metrics


def publish(name: str, text: str) -> None:
    """Print an artifact and persist it under benchmarks/out/."""
    print()
    print(text)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")


__all__ = [
    "MeasuredRun",
    "OUT_DIR",
    "Scenario",
    "corpus",
    "corpus_size",
    "machine",
    "measured",
    "measured_run",
    "options_key",
    "publish",
    "run_scenario",
    "scenario_registry",
]
