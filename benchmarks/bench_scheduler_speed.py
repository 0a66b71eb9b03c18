"""Micro-benchmarks of the scheduler itself (proper timing runs).

These are conventional pytest-benchmark timings (multiple rounds) of
scheduling single representative loops, complementing the one-shot
corpus benchmarks: use them to track scheduler performance regressions.

``test_trace_overhead`` is the observability guardrail: it schedules a
Table-2-style corpus untraced (the shared ``NULL_OBSERVER`` path, which
a NullTracer or a NullProfiler normalizes to), with a metrics registry
alone, with an enabled :class:`Profiler` alone, with the batch progress
stream (per-job lifecycle events through a :class:`ProgressTracker`
plus latency-quantile recording, the per-job cost ``run_batch`` adds),
with the bounded :class:`FlightRecorder` ring buffer (always-on crash
forensics), and with the full :class:`CollectingTracer` + metrics +
enabled :class:`Profiler`.  It asserts the progress/quantile path and
the flight recorder each stay under 5% overhead, reports the rest
without a bound, and publishes the numbers to
``benchmarks/out/trace_overhead.txt``.
"""

import gc
import time

import pytest

from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.obs import (
    CollectingTracer,
    FlightRecorder,
    MetricsRegistry,
    Observer,
    Profiler,
)
from repro.obs.progress import (
    KIND_STARTED,
    KIND_SUBMITTED,
    NullProgressSink,
    ProgressTracker,
    StragglerWatchdog,
    job_event,
)
from repro.workloads import paper_corpus
from repro.workloads.livermore import kernel7_state
from repro.workloads.generator import LoopGenerator

from harness import publish

MACHINE = cydra5()


@pytest.fixture(scope="module")
def medium_loop():
    loop = compile_loop(kernel7_state())
    return loop, build_ddg(loop, MACHINE)


@pytest.fixture(scope="module")
def large_loop():
    program = None
    generator = LoopGenerator(13)
    # Draw until a genuinely large loop appears (deterministic).
    for index in range(200):
        candidate = generator.generate(f"big{index}", "both")
        compiled = compile_loop(candidate)
        if program is None or len(compiled.real_ops) > len(program[0].real_ops):
            program = (compiled, candidate)
        if len(program[0].real_ops) >= 80:
            break
    loop = program[0]
    return loop, build_ddg(loop, MACHINE)


def test_schedule_medium_loop(benchmark, medium_loop):
    loop, ddg = medium_loop
    result = benchmark(lambda: modulo_schedule(loop, MACHINE, ddg=ddg))
    assert result.success


def test_schedule_large_loop(benchmark, large_loop):
    loop, ddg = large_loop
    result = benchmark(lambda: modulo_schedule(loop, MACHINE, ddg=ddg))
    assert result.success


def test_schedule_cydrome_medium(benchmark, medium_loop):
    loop, ddg = medium_loop
    result = benchmark(lambda: modulo_schedule(loop, MACHINE, algorithm="cydrome", ddg=ddg))
    assert result.success


# ----------------------------------------------------------------------
# Traced vs untraced: the always-on paths must be (nearly) free
# ----------------------------------------------------------------------
def _one_corpus_run(loops, observer=None):
    """Wall time of scheduling every pre-compiled loop once.

    Collects garbage before starting the clock: a traced configuration
    leaves thousands of dead event objects behind, and without the
    explicit collect their GC debt lands inside the *next*
    configuration's timing window, skewing the paired ratios (the
    untraced baseline, which runs first in every round, used to absorb
    the CollectingTracer's garbage from the previous round).
    """
    gc.collect()
    started = time.perf_counter()
    for loop, ddg in loops:
        modulo_schedule(loop, MACHINE, ddg=ddg, observer=observer)
    return time.perf_counter() - started


def _one_corpus_run_with_progress(loops):
    """Wall time of the same corpus with the batch progress stream: the
    per-job lifecycle events, straggler watchdog, and latency-quantile
    histogram that ``run_batch`` layers on top of the scheduler."""
    from repro.obs.progress import KIND_FINISHED

    registry = MetricsRegistry()
    tracker = ProgressTracker(
        total=len(loops),
        sinks=[NullProgressSink()],
        metrics=registry,
        watchdog=StragglerWatchdog(),
    )
    latencies = registry.histogram("service.job.seconds")
    gc.collect()  # same GC-debt isolation as _one_corpus_run
    started = time.perf_counter()
    for index, (loop, ddg) in enumerate(loops):
        tracker.emit(job_event(KIND_SUBMITTED, index, loop.name))
        tracker.emit(job_event(KIND_STARTED, index, loop.name))
        job_started = time.perf_counter()
        modulo_schedule(loop, MACHINE, ddg=ddg)
        seconds = time.perf_counter() - job_started
        tracker.emit(
            job_event(KIND_FINISHED, index, loop.name, status="ok", seconds=seconds)
        )
        latencies.record(seconds)
    elapsed = time.perf_counter() - started
    tracker.close()
    return elapsed


def test_trace_overhead(benchmark):
    loops = []
    for program in paper_corpus(120, seed=1993):
        loop = compile_loop(program)
        loops.append((loop, build_ddg(loop, MACHINE)))

    # Interleave the configurations within every round and compare
    # *paired* per-round ratios (median over rounds), so machine noise
    # and clock-frequency drift cannot masquerade as tracer overhead.
    rounds = 7

    def measure():
        samples = []
        for _ in range(rounds):
            samples.append(
                (
                    _one_corpus_run(loops),
                    _one_corpus_run(loops, Observer(metrics=MetricsRegistry())),
                    _one_corpus_run(loops, Observer(prof=Profiler())),
                    _one_corpus_run_with_progress(loops),
                    _one_corpus_run(loops, Observer(FlightRecorder())),
                    _one_corpus_run(
                        loops,
                        Observer(CollectingTracer(), MetricsRegistry(), Profiler()),
                    ),
                )
            )
        return samples

    _one_corpus_run(loops)  # warm caches
    samples = benchmark.pedantic(measure, rounds=1, iterations=1)

    def median(values):
        ordered = sorted(values)
        return ordered[len(ordered) // 2]

    untraced = min(s[0] for s in samples)
    metered = min(s[1] for s in samples)
    profiled = min(s[2] for s in samples)
    progressed = min(s[3] for s in samples)
    flight_traced = min(s[4] for s in samples)
    full_traced = min(s[5] for s in samples)
    metrics_overhead = median(s[1] / s[0] for s in samples) - 1.0
    prof_overhead = median(s[2] / s[0] for s in samples) - 1.0
    progress_overhead = median(s[3] / s[0] for s in samples) - 1.0
    flight_overhead = median(s[4] / s[0] for s in samples) - 1.0
    full_overhead = median(s[5] / s[0] for s in samples) - 1.0
    report = "\n".join(
        [
            f"trace overhead ({len(loops)}-loop corpus, {rounds} interleaved rounds,",
            "best-of wall times and median paired per-round overhead)",
            f"  untraced (no observer):          {untraced * 1e3:8.1f} ms",
            f"  metrics registry alone:          {metered * 1e3:8.1f} ms "
            f"({metrics_overhead:+.1%})",
            f"  enabled Profiler alone:          {profiled * 1e3:8.1f} ms "
            f"({prof_overhead:+.1%})",
            f"  progress stream + quantiles:     {progressed * 1e3:8.1f} ms "
            f"({progress_overhead:+.1%})",
            f"  FlightRecorder ring (64 slots):  {flight_traced * 1e3:8.1f} ms "
            f"({flight_overhead:+.1%})",
            f"  tracer + metrics + profiler:     {full_traced * 1e3:8.1f} ms "
            f"({full_overhead:+.1%})",
            "",
            "invariant: the batch progress stream (per-job lifecycle events",
            "+ latency-quantile tracking) must cost under 5% because it runs",
            "per job, not per scheduling decision, and the always-on",
            "FlightRecorder ring buffer (bounded append, no timestamping)",
            "must stay within the same 5% budget.  The metrics, profiler and",
            "full rows are opt-in and carry no bound.",
        ]
    )
    publish("trace_overhead", report)
    assert progress_overhead < 0.05, (
        f"progress-stream overhead {progress_overhead:.1%} exceeds the 5% budget"
    )
    assert flight_overhead < 0.05, (
        f"flight-recorder overhead {flight_overhead:.1%} exceeds the 5% budget"
    )
