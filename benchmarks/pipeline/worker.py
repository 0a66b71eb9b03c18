"""One workload in one fresh process: set up, measure, report one JSON line.

``run.py`` starts this; it is not a user entry point.  The JSON carries
``ready_at`` (``time.time()`` when set-up finished) and ``setup_scale``,
which the launcher applies to the time from its spawn to ``ready_at`` to
get one ``setup_s`` sample.  With ``--setup-only`` the process exits
right after set-up.

Timing: a run makes a fixed number of passes (``workloads.PASS_SECONDS``)
and each pass runs every item once, timing each item on its own.
``loops_per_s`` is the median over the untraced passes of each pass's
throughput; the percentiles are taken over the per-loop times of all
untraced passes together.
A run starts no new pass once ``OVERRUN`` times ``--seconds`` have gone
by, so a host far slower than the calibration host still ends in time.

Every reported time is scaled to a host of fixed speed.  The host this
was calibrated on runs 1.5-2x slower for stretches of 0.1 s to tens of
minutes, often on one vCPU at a time (CALIBRATION.md), so a fixed
pure-Python task, :func:`probe`, is timed between loops at least every
``PROBE_EVERY_S`` of loop time.  Each loop's measured time is multiplied
by ``REFERENCE_PROBE_S`` over the mean of the probes taken just before
and just after it.  A change to the program does not change the probe,
so a program that gets faster still reads faster; a host that slows
down slows both and cancels out.  For the same reason, between loops the
process moves to the vCPU where the probe runs fastest.  Traced passes
alternate with untraced ones and only feed the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import List, NamedTuple

from spans import Recorder, chrome_events, coverage, layer_totals, plain_call

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Layers timed by the traced pass, named after the repro modules.
LAYERS = (
    "frontend",
    "ir",
    "core.schedule",
    "core.validate",
    "bounds",
    "regalloc",
    "codegen",
    "simulator.state",
    "simulator.sequential",
    "simulator.dataflow",
    "simulator.vliw",
    "service.batch",
    "service.keys",
    "service.cache_get",
)

#: A run makes at least this many passes, so a traced run has both kinds.
MIN_PASSES = 2

#: A run starts no pass after this many times ``--seconds`` of passes.
OVERRUN = 1.5

#: Seconds between two searches for the fastest vCPU.
SETTLE_INTERVAL_S = 0.5

#: Loop time between two probes.  A loop longer than this is probed on
#: both sides; shorter loops share the probes around their group.
PROBE_EVERY_S = 0.02

#: Seconds :func:`probe` takes on the calibration hardware when the host
#: is quiet (CALIBRATION.md).  Reported times are scaled to this speed.
REFERENCE_PROBE_S = 0.00032


class Pass(NamedTuple):
    traced: bool
    loops: int  # the first ``loops`` items feed the end-to-end metrics
    times: List[float]  # seconds per item, in item order, at the reference speed
    wall: List[float]  # the same items' seconds as measured
    probes: List[float]  # every probe time of the pass
    failures: list  # workloads.Facts of the items that failed
    elapsed: float  # wall seconds of the whole pass, checks and probes included

    @property
    def loop_times(self) -> List[float]:
        return self.times[:self.loops]

    @property
    def loops_per_s(self) -> float:
        return self.loops / sum(self.loop_times)

    @property
    def wall_loops_per_s(self) -> float:
        return self.loops / sum(self.wall[:self.loops])

    @property
    def warm_loops_per_s(self) -> float:
        """Throughput of the service's warm requests; 0 elsewhere."""
        warm = self.times[self.loops:]
        return len(warm) / sum(warm) if warm else 0.0


def probe() -> float:
    """Seconds a fixed pure-Python task takes: building dicts, lists and
    strings and a keyed sort, the interpreter work the pipeline does.  A
    bare integer loop tracked the host's slow stretches worse.  The
    collector is off, so the program's heap cannot change the time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(10):
            table = {}
            for i in range(100):
                table[(i * 7919) % 101] = [i, str(i)]
            ordered = sorted(table.items(), key=lambda entry: -entry[0])
            sum(len(value[1]) for _, value in ordered)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def probe_median() -> float:
    return statistics.median(probe() for _ in range(5))


class CpuPicker:
    """Keeps the process on the allowed CPU where :func:`probe` is fastest,
    checking at most every ``SETTLE_INTERVAL_S``.  A no-op with one CPU or
    where the platform has no affinity calls."""

    def __init__(self):
        getter = getattr(os, "sched_getaffinity", None)
        self.cpus = sorted(getter(0)) if getter else []
        self.checked = -math.inf

    def settle(self) -> bool:
        """Search if one is due; True if it did (the process may have moved)."""
        if len(self.cpus) < 2 or time.perf_counter() - self.checked < SETTLE_INTERVAL_S:
            return False
        speed = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            speed[cpu] = min(probe(), probe())
        os.sched_setaffinity(0, {min(speed, key=speed.get)})
        self.checked = time.perf_counter()
        return True


def run_pass(bench, index: int, picker: CpuPicker, recorder=None):
    """One pass over every item; returns ``(Pass, facts per item)``."""
    call = recorder.call if recorder is not None else plain_call
    started = time.perf_counter()
    # Nothing left to write back: otherwise the cache files of earlier
    # passes and runs reach the disk during this pass and slowed
    # cold service requests by up to 20% from one run to the next
    # (CALIBRATION.md).
    os.sync()
    bench.begin_pass(index)
    times, wall, facts = [], [], []
    picker.settle()
    probes = [probe()]
    unprobed_s = 0.0
    last = bench.items - 1
    for item in range(bench.items):
        trace_id = f"{bench.name}/{index}/{item}"
        if recorder is not None:
            recorder.open_root(trace_id)
        start = time.perf_counter()
        try:
            outcome, error = bench.run(item, call), None
        except Exception:
            outcome, error = None, traceback.format_exc()
        end = time.perf_counter()
        wall.append(end - start)
        unprobed_s += end - start
        if recorder is not None:
            recorder.close_root("loop", start, end)
        if error is None:
            try:
                facts.append(bench.check(item, outcome))
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            facts.append(bench.failure(item, error))
        if recorder is not None and bench.is_service:
            recorder.open_root(trace_id)
            start = time.perf_counter()
            bench.direct(item, recorder.call)
            recorder.close_root("direct", start, time.perf_counter())
        if unprobed_s >= PROBE_EVERY_S or item == last:
            before, after = probes[-1], probe()
            scale = 2 * REFERENCE_PROBE_S / (before + after)
            times.extend(seconds * scale for seconds in wall[len(times):])
            probes.append(after)
            unprobed_s = 0.0
            if item != last and picker.settle():
                probes.append(probe())
    failures = [f for f in facts if f.problems]
    elapsed = time.perf_counter() - started
    return (
        Pass(recorder is not None, bench.loops, times, wall, probes, failures, elapsed),
        facts,
    )


def nearest_rank(ordered: List[float], fraction: float) -> float:
    return ordered[max(0, math.ceil(len(ordered) * fraction) - 1)]


def untraced_median(passes: List[Pass], statistic) -> float:
    """Median over the untraced passes of ``statistic(pass)``."""
    return statistics.median(statistic(p) for p in passes if not p.traced)


def end_to_end(passes: List[Pass], facts: list) -> dict:
    # Percentiles pool the per-loop times of every untraced pass: a
    # pass of large's 72 loops leaves only 7 above its 90th percentile.
    samples = sorted(t for p in passes if not p.traced for t in p.loop_times)
    return {
        "loops_per_s": untraced_median(passes, lambda p: p.loops_per_s),
        "loop_p50_ms": statistics.median(samples) * 1e3,
        "loop_p90_ms": nearest_rank(samples, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ii_over_mii": sum(f.ii for f in facts) / sum(f.mii for f in facts),
        "max_live_sum": sum(f.max_live for f in facts),
        "ops_per_cycle": (
            sum(f.trip * f.ops for f in facts) / sum(f.kernel_cycles for f in facts)
        ),
    }


def per_layer(bench, passes: List[Pass], items: list, recorder) -> dict:
    facts, loops = items[:bench.loops], bench.loops
    traced = sum(1 for p in passes if p.traced)
    spans = recorder.spans
    loop_time = sum(s.end - s.start for s in spans if s.name == "loop")
    totals = layer_totals(spans)
    metrics = {}
    for layer in LAYERS:
        busy, calls = totals.get(layer, (0.0, 0))
        metrics[f"{layer}.share"] = busy / loop_time
        metrics[f"{layer}.calls"] = calls // traced
    ops = sum(f.ops for f in facts)
    max_live = sum(f.max_live for f in facts)
    rr = sum(f.rr_registers for f in facts)
    scheduled = [f for f in facts if f.stages]
    metrics.update({
        "frontend.ops": ops,
        "ir.arcs": sum(f.arcs for f in facts),
        "core.attempts": sum(f.attempts for f in facts),
        "core.placements": sum(f.placements for f in facts),
        "core.ejections": sum(f.ejections for f in facts),
        "core.placements_per_op": sum(f.placements for f in facts) / ops,
        "core.first_ii_rate": sum(1 for f in facts if f.attempts == 1) / loops,
        "core.ii_below_mii_loops": sum(1 for f in scheduled if f.ii < f.mii),
        "bounds.maxlive_below_minavg_loops": sum(
            1 for f in scheduled if f.max_live < f.min_avg
        ),
        "regalloc.rr_registers": rr,
        "regalloc.rr_over_maxlive": rr / max_live if rr else 0.0,
        "codegen.kernel_ops": sum(f.kernel_ops for f in facts),
        "simulator.op_instances": sum(f.instances for f in facts),
        "simulator.nonfinite_witness_loops": sum(1 for f in facts if f.nonfinite),
        "service.hits": sum(1 for f in items if f.hit),
        "service.misses": (
            sum(1 for f in items if not f.hit) if bench.is_service else 0
        ),
        "service.cache_bytes": bench.cache_bytes(),
        "service.warm_loops_per_s": untraced_median(passes, lambda p: p.warm_loops_per_s),
        "trace.coverage": coverage(spans),
        "trace.overhead": (
            statistics.median(sum(p.times) for p in passes if p.traced)
            / untraced_median(passes, lambda p: sum(p.times))
            - 1
        ),
        "trace.loop_s": loop_time / traced,
        "trace.spans": len(spans) // traced,
    })
    return metrics


def measure(bench, seconds: float, trace: bool):
    """Run the passes of a ``seconds`` run; return ``(result, detail)``."""
    count = max(MIN_PASSES, int(seconds / bench.pass_seconds))
    recorder = Recorder() if trace else None
    picker = CpuPicker()
    before = probe_median()
    started = time.perf_counter()
    deadline = started + OVERRUN * seconds
    first, facts = run_pass(bench, 0, picker)  # every pass yields the same facts
    passes = [first]
    while len(passes) < count and (
        len(passes) < MIN_PASSES or time.perf_counter() < deadline
    ):
        traced = trace and len(passes) % 2 == 1
        passes.append(
            run_pass(bench, len(passes), picker, recorder if traced else None)[0]
        )
    drift = probe_median() / before - 1
    metrics = (
        per_layer(bench, passes, facts, recorder)
        if trace else end_to_end(passes, facts[:bench.loops])
    )
    problems = [
        f"pass {index} {f.name}: {problem}"
        for index, p in enumerate(passes)
        for f in p.failures
        for problem in f.problems
    ]
    failed = sum(len(p.failures) for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": sum(len(p.times) for p in passes),
        "failed": failed,
        "metrics": metrics,
        "problems": problems[:20],
        "probe_drift": drift,
    }
    detail = {
        "loops": bench.loops,
        "passes": [
            {
                "traced": p.traced,
                "elapsed_s": p.elapsed,
                "loops_per_s": p.loops_per_s,
                "wall_loops_per_s": p.wall_loops_per_s,
                "probe_s": statistics.median(p.probes),
            }
            for p in passes
        ],
        "loop_samples": sum(p.loops for p in passes if not p.traced),
        # The first traced pass (pass 1) only: all of them ran to ~30 MB.
        "trace_events": chrome_events(
            [s for s in recorder.spans if s.trace_id.startswith(f"{bench.name}/1/")],
            started, os.getpid(),
        ) if trace else [],
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scratch", required=True, help="directory for caches and temp files")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--detail", help="write per-pass samples and spans here")
    args = parser.parse_args(argv)

    host_before = probe_median()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    os.makedirs(args.scratch, exist_ok=True)
    tempfile.tempdir = args.scratch  # run_batch's temp dirs stay in the checkout
    bench = workloads.build(args.workload, args.seed, args.scratch)
    ready_at = time.time()
    # Set-up is scaled like a loop: by the probes on either side of it.
    ready = {
        "ready_at": ready_at,
        "setup_scale": 2 * REFERENCE_PROBE_S / (host_before + probe_median()),
    }
    if args.setup_only:
        print(json.dumps(ready), flush=True)
        return 0
    result, detail = measure(bench, args.seconds, bool(args.trace))
    result.update(ready)
    if args.detail:
        with open(args.detail, "w") as handle:
            json.dump(detail, handle)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
