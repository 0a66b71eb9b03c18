"""The benchmark's workloads: seeded inputs, the timed work, the checks.

Every name imported from ``repro`` is public (package exports, or a
public module function such as ``repro.simulator.vliw.run_vliw``).

Each workload is a list of items and one function that does the timed
work for an item.  An item is one loop; the service workload has two
items per loop, a cold request and then, after every cold one, a warm
request.  The work goes through a ``call(layer, fn, *args)`` hook:
:func:`spans.plain_call` when untraced, or :meth:`spans.Recorder.call`
when traced, so both passes run the same code.  :meth:`Workload.check`
runs after the timer stops and turns the outcome into :class:`Facts`:
deterministic counts plus any problems.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
from typing import Callable, List, Optional

from repro.bounds import MinDist, min_avg, rr_max_live
from repro.codegen import generate_kernel
from repro.core import modulo_schedule, validate_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import build_machine, cydra5
from repro.regalloc import allocate_registers
from repro.service import JOB_CACHED, JOB_OK, DirectoryCache, cache_key, run_batch
from repro.simulator import initial_state, run_pipelined, run_sequential
from repro.simulator.vliw import run_vliw
from repro.workloads import paper_corpus
from spans import plain_call

WORKLOADS = ("mix", "large", "gpu", "service")

#: The loop sets are drawn once, from the paper corpus at this seed, and
#: ``--seed`` picks the loop order and the simulated array contents.  A
#: fresh corpus per seed moved throughput 11-64% between seeds (a few
#: draws contain a loop whose RecMII circuit search hits its cap and
#: costs ~2.5 s), far beyond any regression bound; see CALIBRATION.md.
CORPUS_SEED = 1993

#: Loops per pass.  ``large`` is instead the full corpus's tail (below).
CORPUS_LOOPS = {"mix": 240, "gpu": 240, "service": 600}

#: ``large`` takes the loops of the full 1,525-loop corpus with this many
#: real operations.  The four loops above 128 ops add ~6 s of RecMII
#: search per pass, which would leave room for only two passes a run.
#: Starting at 64 ops gave 29 loops, too few for a 90th percentile: its
#: spread across seeds reached 11.7% (CALIBRATION.md).
LARGE_OPS = range(48, 129)

#: Wall seconds one untraced pass takes on the calibration hardware,
#: rounded up (CALIBRATION.md).  A run of ``--seconds`` makes
#: ``int(seconds / PASS_SECONDS)`` passes: the count depends on the
#: arguments only, so a slower commit is sampled as often as a faster one.
PASS_SECONDS = {"mix": 3.0, "large": 5.0, "gpu": 5.0, "service": 2.5}


@dataclasses.dataclass
class Facts:
    """What one item produced, reduced to deterministic numbers."""

    name: str
    ops: int = 0
    arcs: int = 0
    trip: int = 0
    ii: int = 0
    mii: int = 0
    stages: int = 0
    max_live: int = 0
    min_avg: int = 0
    rr_registers: int = 0
    kernel_ops: int = 0
    instances: int = 0  # op instances each simulator executed (trip x ops)
    attempts: int = 0
    placements: int = 0
    ejections: int = 0
    nonfinite: bool = False  # the sequential reference produced inf/NaN
    hit: bool = False  # service: answered from the cache
    problems: List[str] = dataclasses.field(default_factory=list)

    @property
    def kernel_cycles(self) -> int:
        """Cycles ``run_vliw`` executes: (trip + stages - 1) x II."""
        return (self.trip + self.stages - 1) * self.ii


# ----------------------------------------------------------------------
# Output checker (runs outside the timer)
# ----------------------------------------------------------------------
def same_value(a, b) -> bool:
    """Exact equality, with NaN equal to NaN."""
    return a == b or (a != a and b != b)


def state_mismatches(program, reference, other, label: str) -> List[str]:
    """Every array cell and live-out scalar of ``other`` that differs
    from ``reference`` (both MachineStates of ``program``)."""
    problems = []
    for array in program.arrays:
        want, got = reference.arrays[array], other.arrays[array]
        if len(want) != len(got):
            problems.append(f"{label}: {array} has {len(got)} cells, want {len(want)}")
            continue
        for cell, (a, b) in enumerate(zip(want, got)):
            if not same_value(a, b):
                problems.append(f"{label}: {array}[{cell}] = {b!r}, want {a!r}")
                break
    for scalar in program.live_out:
        a, b = reference.scalars.get(scalar), other.scalars.get(scalar)
        if not same_value(a, b):
            problems.append(f"{label}: scalar {scalar} = {b!r}, want {a!r}")
    return problems


def has_nonfinite(program, state) -> bool:
    values = [v for array in program.arrays for v in state.arrays[array]]
    values += [state.scalars.get(name, 0.0) for name in program.live_out]
    return any(isinstance(v, float) and not math.isfinite(v) for v in values)


def comparable(metrics) -> dict:
    """A LoopMetrics as a dict without its wall-clock ``*_seconds`` fields."""
    return {
        key: value
        for key, value in dataclasses.asdict(metrics).items()
        if not key.endswith("_seconds")
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Inputs built at set-up; ``run`` is timed, ``check`` is not."""

    #: Service workloads count cache misses and make ``direct`` calls.
    is_service = False

    #: Items per loop in a pass.  Item ``i`` works on loop ``i % loops``;
    #: only the first ``loops`` items feed the end-to-end metrics.
    items_per_loop = 1

    def __init__(self, name: str, seed: int, scratch: str, limit: Optional[int] = None):
        self.name = name
        self.seed = seed
        self.scratch = scratch
        self.pass_seconds = PASS_SECONDS[name]
        self.machine = build_machine("gpu") if name == "gpu" else cydra5()
        if name == "large":
            programs = [
                program
                for program in paper_corpus(seed=CORPUS_SEED)
                if len(compile_loop(program).real_ops) in LARGE_OPS
            ]
        else:
            programs = paper_corpus(CORPUS_LOOPS[name], CORPUS_SEED)
        random.Random(seed).shuffle(programs)
        self.programs = programs[:limit] if limit else programs
        self.loops = len(self.programs)
        self.items = self.loops * self.items_per_loop

    def begin_pass(self, index: int) -> None:
        pass

    def run(self, index: int, call: Callable):
        raise NotImplementedError

    def check(self, index: int, outcome) -> Facts:
        raise NotImplementedError

    def failure(self, index: int, error: str) -> Facts:
        """Facts for an item whose run or check raised ``error``."""
        return Facts(name=self.programs[index % self.loops].name, problems=[error])

    def direct(self, index: int, call: Callable) -> None:
        """Extra traced-only calls made outside the item's root span."""

    def cache_bytes(self) -> int:
        return 0


class PipelineWorkload(Workload):
    """DSL → compile → DDG → schedule → validate → bounds → regalloc →
    codegen → three simulators, each on a fresh initial state."""

    def run(self, index, call):
        program, machine, seed = self.programs[index], self.machine, self.seed
        loop = call("frontend", compile_loop, program)
        ddg = call("ir", build_ddg, loop, machine)
        result = call("core.schedule", modulo_schedule, loop, machine, ddg=ddg)
        if not result.success:
            return loop, ddg, result, None
        schedule = result.schedule
        violations = call("core.validate", validate_schedule, schedule, ddg)
        ii = schedule.ii
        max_live = call("bounds", rr_max_live, loop, ddg, schedule.times, ii)
        mindist = call("bounds", MinDist, ddg, ii)
        avg = call("bounds", min_avg, loop, ddg, mindist, ii)
        assignment = call("regalloc", allocate_registers, schedule, ddg)
        kernel = call("codegen", generate_kernel, schedule, assignment)
        sequential = call(
            "simulator.sequential", run_sequential, program,
            call("simulator.state", initial_state, program, seed=seed),
        )
        dataflow = call(
            "simulator.dataflow", run_pipelined, schedule,
            call("simulator.state", initial_state, program, seed=seed),
        )
        vliw = call(
            "simulator.vliw", run_vliw, kernel,
            call("simulator.state", initial_state, program, seed=seed),
        )
        return loop, ddg, result, (
            violations, max_live, avg, assignment, kernel, sequential, dataflow, vliw,
        )

    def check(self, index, outcome):
        program = self.programs[index]
        loop, ddg, result, rest = outcome
        stats = result.stats
        facts = Facts(
            name=program.name, ops=len(loop.real_ops), arcs=len(ddg.arcs),
            trip=program.trip, ii=result.ii, mii=result.mii,
            attempts=stats.attempts, placements=stats.placements,
            ejections=stats.ejections,
        )
        if rest is None:
            facts.problems.append("no schedule")
            return facts
        violations, max_live, avg, assignment, kernel, sequential, dataflow, vliw = rest
        facts.stages = result.schedule.stages
        facts.max_live, facts.min_avg = max_live, avg
        facts.rr_registers = assignment.rr_registers
        facts.kernel_ops = len(kernel.all_ops())
        facts.instances = program.trip * facts.ops
        facts.nonfinite = has_nonfinite(program, sequential)
        facts.problems += violations
        facts.problems += state_mismatches(program, sequential, dataflow, "run_pipelined")
        facts.problems += state_mismatches(program, sequential, vliw, "run_vliw")
        return facts


class ServiceWorkload(Workload):
    """One closed-loop client sending single-loop ``run_batch`` requests
    to a directory cache.  Every pass opens a new, empty cache directory
    and sends each loop twice: first all the cold requests, each of which
    computes and writes, then all the warm ones, each a read.

    A pass's cache is left in place until the run's scratch directory is
    removed: on the calibration host's ext4 (mounted with ``discard``),
    deleting caches between passes stalled the next pass's writes."""

    is_service = True
    items_per_loop = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._open_cache("setup")
        self.reference: List[Optional[dict]] = [None] * self.loops

    def _request(self, program, call=plain_call):
        # flight_events=0: the flight recorder makes and deletes one temp
        # directory per batch.  A batch of 600 loops pays that once; 600
        # single-loop requests paid it 600 times, and on the calibration
        # host that directory churn took 90-420 us a request, varying 6x
        # with the disk rather than the program (CALIBRATION.md).
        return call(
            "service.batch", run_batch, [program], self.machine,
            jobs=1, backend="serial", cache_dir=self.cache_dir, flight_events=0,
        )

    def _open_cache(self, label) -> None:
        self.cache_dir = os.path.join(self.scratch, f"cache-{label}")
        self.cache = DirectoryCache(self.cache_dir)

    def begin_pass(self, index):
        self._open_cache(index)

    def run(self, index, call):
        return self._request(self.programs[index % self.loops], call)

    def check(self, index, report):
        cold, loop = index < self.loops, index % self.loops
        program = self.programs[loop]
        facts = Facts(name=program.name, trip=program.trip)
        result = report.results[0]
        facts.hit = result.status == JOB_CACHED
        if result.status != (JOB_OK if cold else JOB_CACHED):
            facts.problems.append(f"status {result.status}: {result.error}")
        metrics = result.metrics
        if metrics is None or not metrics.success:
            facts.problems.append("no schedule")
            return facts
        facts.ops, facts.ii, facts.mii = metrics.n_ops, metrics.ii, metrics.mii
        facts.stages, facts.max_live = metrics.stages, metrics.max_live
        facts.min_avg = metrics.min_avg
        facts.attempts, facts.placements = metrics.attempts, metrics.placements
        facts.ejections = metrics.ejections
        seen = comparable(metrics)
        if self.reference[loop] is None:  # the first pass's cold request
            self.reference[loop] = seen
        elif seen != self.reference[loop]:
            facts.problems.append("metrics differ from the first cold result")
        return facts

    def direct(self, index, call):
        program = self.programs[index % self.loops]
        key = call("service.keys", cache_key, program, self.machine)
        call("service.cache_get", self.cache.get, key)

    def cache_bytes(self):
        return sum(
            os.path.getsize(os.path.join(directory, name))
            for directory, _, names in os.walk(self.cache_dir)
            for name in names
        )


def build(name: str, seed: int, scratch: str, limit: Optional[int] = None) -> Workload:
    """Set up one workload: generate (or filter) its loops, build the
    machine, open the cache."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; pick from {WORKLOADS}")
    kind = ServiceWorkload if name.startswith("service") else PipelineWorkload
    return kind(name, seed, scratch, limit)
