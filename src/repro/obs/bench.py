"""The unified benchmark harness: scenarios -> schema-versioned JSON.

Every benchmark scenario runs behind one protocol — warmup runs, N
timed repeats, median + IQR — and is written as ``BENCH_<scenario>.json``
so perf claims become comparable artifacts instead of free-form text:

    python -m repro bench                      # default scenario set
    python -m repro bench --scenario slack --corpus 120 --repeats 5
    python -m repro bench --compare old/ new/ --fail-on-regress

Each payload carries wall-time statistics, throughput (loops/sec and
ops-scheduled/sec), the schedule-quality aggregates the paper's
evaluation is built on (II vs. MII, MaxLive vs. MinAvg), scheduler
effort (attempts/ejections), a profiler span breakdown
(:mod:`repro.obs.prof`), the corpus size, and the git SHA.  The noise
model that makes two payloads comparable lives in
:mod:`repro.obs.regress`; the schema is documented in DESIGN.md.

Metric entries are self-describing so the comparator needs no
out-of-band table::

    {"value": 1.84, "unit": "s", "direction": "lower",
     "kind": "time", "iqr": 0.02}

``direction`` says which way is better; ``kind`` separates wall-clock
metrics (machine-dependent, gated only with ``--gate-time``) from
deterministic ones (identical on every machine for a given corpus, so
any delta is a real behavior change).
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.canonical import canonical_dump

#: Bump when a payload's structure changes incompatibly.  Loaders
#: refuse other versions rather than mis-reading them.
BENCH_SCHEMA = "repro.bench"
BENCH_SCHEMA_VERSION = 1

#: Schema tag for ``--metrics-out`` dumps of a MetricsRegistry.
METRICS_SCHEMA = "repro.metrics"


# ----------------------------------------------------------------------
# Schema helpers (shared with --metrics-out and the regression gate)
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    """Current commit SHA, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def wrap_payload(schema: str, body: dict) -> dict:
    """Stamp a body with schema/version/provenance envelope fields."""
    return {
        "schema": schema,
        "schema_version": BENCH_SCHEMA_VERSION,
        "created_unix": time.time(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        **body,
    }


def write_json(path: str, payload: dict) -> None:
    """Write one payload as canonical (sorted-key) pretty JSON."""
    canonical_dump(payload, path, indent=2)


def payload_problem(payload, schema: str = BENCH_SCHEMA) -> Optional[str]:
    """Why ``payload`` is not a supported ``schema`` envelope, or None."""
    found = payload.get("schema") if isinstance(payload, dict) else None
    if found != schema:
        return f"expected schema {schema!r}, found {found!r}"
    if payload.get("schema_version") != BENCH_SCHEMA_VERSION:
        return (
            f"schema version {payload.get('schema_version')!r} "
            f"!= supported {BENCH_SCHEMA_VERSION}"
        )
    return None


def load_payload(path: str, schema: str = BENCH_SCHEMA) -> dict:
    """Load and validate one schema-versioned JSON payload."""
    with open(path) as handle:
        payload = json.load(handle)
    problem = payload_problem(payload, schema)
    if problem:
        raise ValueError(f"{path}: {problem}")
    return payload


def metric(
    value: float,
    unit: str,
    direction: str = "lower",
    kind: str = "count",
    iqr: float = 0.0,
) -> dict:
    """One self-describing metric entry (see module docstring)."""
    if direction not in ("lower", "higher"):
        raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
    if kind not in ("time", "count"):
        raise ValueError(f"kind must be 'time' or 'count', got {kind!r}")
    return {
        "value": float(value),
        "unit": unit,
        "direction": direction,
        "kind": kind,
        "iqr": float(iqr),
    }


def sample_stats(samples: Sequence[float]) -> dict:
    """Median + IQR (and extremes) over repeat measurements."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        return {"n": 0, "median": 0.0, "iqr": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
    median = statistics.median(ordered)
    if n >= 4:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        iqr = q3 - q1
    elif n > 1:
        iqr = ordered[-1] - ordered[0]
    else:
        iqr = 0.0
    return {
        "n": n,
        "median": median,
        "iqr": iqr,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": sum(ordered) / n,
    }


def corpus_aggregates(loop_metrics) -> Dict[str, dict]:
    """Deterministic schedule-quality aggregates over LoopMetrics.

    These are machine-independent for a fixed corpus: the scheduler is
    deterministic, so *any* delta between two runs at the same corpus
    size is a behavior change, not noise.
    """
    scheduled = [m for m in loop_metrics if m.success]
    n = len(loop_metrics)
    ops_scheduled = sum(m.n_ops for m in scheduled)
    sum_ii = sum(m.ii for m in scheduled)
    sum_mii = sum(m.mii for m in scheduled)
    sum_maxlive = sum(m.max_live for m in scheduled)
    sum_minavg = sum(m.min_avg for m in scheduled)
    return {
        "loops": metric(n, "loops", direction="higher"),
        "loops_scheduled": metric(len(scheduled), "loops", direction="higher"),
        "ops_scheduled": metric(ops_scheduled, "ops", direction="higher"),
        "success_rate": metric(
            len(scheduled) / n if n else 0.0, "fraction", direction="higher"
        ),
        "optimality_rate": metric(
            sum(1 for m in scheduled if m.optimal) / n if n else 0.0,
            "fraction",
            direction="higher",
        ),
        "ii_over_mii": metric(
            sum_ii / sum_mii if sum_mii else 0.0, "ratio", direction="lower"
        ),
        "maxlive_over_minavg": metric(
            sum_maxlive / sum_minavg if sum_minavg else 0.0,
            "ratio",
            direction="lower",
        ),
        "attempts_total": metric(
            sum(m.attempts for m in loop_metrics), "attempts", direction="lower"
        ),
        "ejections_total": metric(
            sum(m.ejections for m in loop_metrics), "ejections", direction="lower"
        ),
        "placements_total": metric(
            sum(m.placements for m in loop_metrics), "placements", direction="lower"
        ),
    }


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Scenario:
    """One benchmarkable scheduler configuration.

    ``corpus_builder(size)`` returns the programs to schedule; the
    default is the paper's deterministic generated corpus.
    """

    name: str
    description: str
    algorithm: str = "slack"
    options_builder: Optional[Callable[[], object]] = None
    corpus_builder: Optional[Callable[[int], list]] = None
    #: Optional custom runner with run_scenario's signature; scenarios
    #: that measure something other than one serial corpus sweep (e.g.
    #: the server's request latencies) plug in here.
    runner: Optional[Callable[..., dict]] = None

    def build_corpus(self, size: int) -> list:
        if self.corpus_builder is not None:
            return self.corpus_builder(size)
        from repro.workloads import paper_corpus

        return paper_corpus(size)

    def options(self):
        return self.options_builder() if self.options_builder else None


def _server_runner(scenario, **kwargs) -> dict:
    from repro.server.bench import run_server_bench

    return run_server_bench(scenario, **kwargs)


def _machine_zoo_runner(scenario, **kwargs) -> dict:
    return run_machine_zoo_bench(scenario, **kwargs)


def _livermore_corpus(size: int) -> list:
    """The Livermore kernels (size caps the count; they are few)."""
    from repro.workloads.livermore import livermore_kernels

    suite = livermore_kernels()
    return suite[: max(1, min(size, len(suite)))]


def _scenarios() -> Dict[str, Scenario]:
    from repro.core import SchedulerOptions

    return {
        "slack": Scenario(
            "slack", "bidirectional slack scheduling (the paper) over the corpus"
        ),
        "cydrome": Scenario(
            "cydrome", "Cydrome-style static-priority baseline", algorithm="cydrome"
        ),
        "warp": Scenario(
            "warp", "Warp-style hierarchical list scheduler (§8)", algorithm="warp"
        ),
        "unidirectional": Scenario(
            "unidirectional",
            "slack scheduling without the bidirectional heuristic (§7 ablation)",
            options_builder=lambda: SchedulerOptions(bidirectional=False),
        ),
        "static_priority": Scenario(
            "static_priority",
            "slack scheduling with frozen initial-slack priority (§8 ablation)",
            options_builder=lambda: SchedulerOptions(dynamic_priority=False),
        ),
        "pressure_limited": Scenario(
            "pressure_limited",
            "register-budgeted scheduling (MaxLive <= 40, II escalates)",
            options_builder=lambda: SchedulerOptions(max_rr_pressure=40),
        ),
        "livermore": Scenario(
            "livermore",
            "the Livermore kernel suite under slack scheduling",
            corpus_builder=_livermore_corpus,
        ),
        "server": Scenario(
            "server",
            "the repro.server daemon under concurrent clients: request "
            "latency quantiles, req/s, cache hit ratio",
            runner=_server_runner,
        ),
        "machine_zoo": Scenario(
            "machine_zoo",
            "every registry target over one corpus: per-target II/MII "
            "and MaxLive/MinAvg",
            runner=_machine_zoo_runner,
        ),
    }


#: The set ``python -m repro bench`` runs when no --scenario is given.
DEFAULT_SCENARIOS = ("slack", "cydrome", "warp")


def scenario_registry() -> Dict[str, Scenario]:
    return _scenarios()


def bench_filename(name: str) -> str:
    return f"BENCH_{name}.json"


def run_scenario(
    scenario: Scenario,
    corpus_size: int = 60,
    repeats: int = 3,
    warmup: int = 1,
    profile: bool = True,
    memory: bool = False,
    machine=None,
) -> dict:
    """Run one scenario under the common protocol; return the payload.

    Timed repeats run unprofiled (the span clock would perturb them);
    a final profiled pass captures the span breakdown and the
    LoopMetrics used for the deterministic aggregates.
    """
    from repro.experiments import run_corpus
    from repro.machine import cydra5
    from repro.obs.observer import Observer
    from repro.obs.prof import Profiler

    machine = machine or cydra5()
    programs = scenario.build_corpus(corpus_size)
    options = scenario.options()

    def one_run(observer=None):
        return run_corpus(
            programs,
            machine,
            algorithm=scenario.algorithm,
            options=options,
            observer=observer,
        )

    for _ in range(max(0, warmup)):
        one_run()
    samples = []
    loop_metrics = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        loop_metrics = one_run()
        samples.append(time.perf_counter() - started)

    profile_snapshot = None
    if profile:
        profiler = Profiler(memory=memory)
        loop_metrics = one_run(Observer(prof=profiler))
        profile_snapshot = profiler.snapshot()
        profiler.close()

    stats = sample_stats(samples)
    wall = stats["median"]
    ops_scheduled = sum(m.n_ops for m in loop_metrics if m.success)
    metrics = {
        "wall_time_s": metric(
            wall, "s", direction="lower", kind="time", iqr=stats["iqr"]
        ),
        "loops_per_s": metric(
            len(loop_metrics) / wall if wall else 0.0,
            "loops/s",
            direction="higher",
            kind="time",
            iqr=_ratio_iqr(len(loop_metrics), stats),
        ),
        "ops_scheduled_per_s": metric(
            ops_scheduled / wall if wall else 0.0,
            "ops/s",
            direction="higher",
            kind="time",
            iqr=_ratio_iqr(ops_scheduled, stats),
        ),
    }
    metrics.update(corpus_aggregates(loop_metrics))
    return wrap_payload(
        BENCH_SCHEMA,
        {
            "scenario": scenario.name,
            "description": scenario.description,
            "algorithm": scenario.algorithm,
            "machine": machine.name,
            "corpus_size": len(programs),
            "repeats": stats["n"],
            "warmup": warmup,
            "wall_time_samples_s": samples,
            "metrics": metrics,
            "profile": profile_snapshot,
        },
    )


def run_machine_zoo_bench(
    scenario: Scenario,
    corpus_size: int = 60,
    repeats: int = 3,
    warmup: int = 1,
    profile: bool = True,
    memory: bool = False,
    machine=None,
) -> dict:
    """Benchmark one corpus across every registry target (the zoo).

    One heterogeneous :func:`repro.experiments.run_corpus_sweep` over
    :func:`repro.machine.registry.default_machines` per timed repeat.
    The payload carries a ``targets`` table (one row per machine:
    II/MII, MaxLive/MinAvg, success counts, ``machine_digest``) plus
    family-prefixed deterministic metric entries
    (``vliw-wide_ii_over_mii``, ...) so ``--fail-on-regress`` gates each
    target's schedule quality independently.  Wall time spans the whole
    sweep.
    """
    from repro.experiments import run_corpus_sweep
    from repro.machine.registry import default_machines
    from repro.service.keys import machine_digest

    if machine is not None:
        raise ValueError(
            "machine_zoo benchmarks every registry target; "
            "--machine does not apply to it"
        )
    machines = default_machines()
    programs = scenario.build_corpus(corpus_size)
    options = scenario.options()

    def one_run():
        return run_corpus_sweep(
            programs, machines, algorithm=scenario.algorithm, options=options
        )

    for _ in range(max(0, warmup)):
        one_run()
    samples: List[float] = []
    per_machine = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        per_machine = one_run()
        samples.append(time.perf_counter() - started)

    stats = sample_stats(samples)
    wall = stats["median"]
    total_loops = len(programs) * len(machines)
    metrics = {
        "wall_time_s": metric(
            wall, "s", direction="lower", kind="time", iqr=stats["iqr"]
        ),
        "loops_per_s": metric(
            total_loops / wall if wall else 0.0,
            "loops/s",
            direction="higher",
            kind="time",
            iqr=_ratio_iqr(total_loops, stats),
        ),
        "targets": metric(len(machines), "machines", direction="higher"),
    }
    targets = []
    for target, loop_metrics in zip(machines, per_machine):
        aggregates = corpus_aggregates(loop_metrics)
        prefix = target.wire["name"]
        metrics[f"{prefix}_ii_over_mii"] = aggregates["ii_over_mii"]
        metrics[f"{prefix}_maxlive_over_minavg"] = aggregates[
            "maxlive_over_minavg"
        ]
        metrics[f"{prefix}_success_rate"] = aggregates["success_rate"]
        scheduled = [m for m in loop_metrics if m.success]
        targets.append(
            {
                "family": prefix,
                "machine": target.name,
                "digest": machine_digest(target),
                "loops": len(loop_metrics),
                "loops_scheduled": len(scheduled),
                "sum_ii": sum(m.ii for m in scheduled),
                "sum_mii": sum(m.mii for m in scheduled),
                "sum_max_live": sum(m.max_live for m in scheduled),
                "sum_min_avg": sum(m.min_avg for m in scheduled),
                "ii_over_mii": aggregates["ii_over_mii"]["value"],
                "maxlive_over_minavg": aggregates["maxlive_over_minavg"][
                    "value"
                ],
            }
        )
    return wrap_payload(
        BENCH_SCHEMA,
        {
            "scenario": scenario.name,
            "description": scenario.description,
            "algorithm": scenario.algorithm,
            "machines": [target.name for target in machines],
            "corpus_size": len(programs),
            "repeats": stats["n"],
            "warmup": warmup,
            "wall_time_samples_s": samples,
            "metrics": metrics,
            "targets": targets,
            "profile": None,
        },
    )


def _ratio_iqr(numerator: float, stats: dict) -> float:
    """IQR of numerator/wall propagated from the wall-time quartiles."""
    median = stats["median"]
    if not median or not numerator:
        return 0.0
    lo = median + stats["iqr"] / 2.0
    hi = max(1e-12, median - stats["iqr"] / 2.0)
    return numerator / hi - numerator / lo


# ----------------------------------------------------------------------
# CLI (python -m repro bench ...)
# ----------------------------------------------------------------------
def bench_main(argv: Optional[List[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run benchmark scenarios to BENCH_<scenario>.json, "
        "or compare two result sets.",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="scenario to run (repeatable; default: %s)" % ", ".join(DEFAULT_SCENARIOS),
    )
    parser.add_argument("--list", action="store_true", help="list scenarios and exit")
    parser.add_argument(
        "--corpus", type=int, default=60, help="corpus size per scenario (default 60)"
    )
    parser.add_argument(
        "--machine",
        metavar="NAME[:k=v,...]",
        help="registry machine the scenarios run on (default: cydra5); "
        "not applicable to machine_zoo, which runs every target",
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed repeats (default 3)"
    )
    parser.add_argument(
        "--warmup", type=int, default=1, help="untimed warmup runs (default 1)"
    )
    parser.add_argument(
        "--out-dir",
        default=".",
        metavar="DIR",
        help="where BENCH_<scenario>.json files are written (default: cwd)",
    )
    parser.add_argument(
        "--no-profile",
        action="store_true",
        help="skip the profiled pass (omit the span breakdown)",
    )
    parser.add_argument(
        "--memory",
        action="store_true",
        help="capture tracemalloc peak memory in the profiled pass",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="compare two BENCH json files/directories instead of running",
    )
    parser.add_argument(
        "--fail-on-regress",
        action="store_true",
        help="exit non-zero if --compare finds a regression",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.02,
        help="relative delta considered noise even with zero IQR (default 0.02)",
    )
    parser.add_argument(
        "--iqr-factor",
        type=float,
        default=2.0,
        help="IQR multiples added to the noise allowance (default 2.0)",
    )
    parser.add_argument(
        "--gate-time",
        action="store_true",
        help="let wall-clock metrics gate --fail-on-regress (off by default: "
        "time is machine-dependent; deterministic metrics always gate)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for name, scenario in sorted(scenario_registry().items()):
            marker = "*" if name in DEFAULT_SCENARIOS else " "
            print(f"{marker} {name:<18} {scenario.description}")
        print("(* = default set)")
        return 0

    if args.compare:
        from repro.obs.regress import compare_main

        return compare_main(
            args.compare[0],
            args.compare[1],
            fail_on_regress=args.fail_on_regress,
            threshold=args.threshold,
            iqr_factor=args.iqr_factor,
            gate_time=args.gate_time,
        )

    registry = scenario_registry()
    names = args.scenario or list(DEFAULT_SCENARIOS)
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(
            f"error: unknown scenario(s) {', '.join(unknown)}; "
            f"pick from {', '.join(sorted(registry))}"
        )
        return 2
    machine = None
    if args.machine:
        from repro.machine import MachineError, machine_from_cli

        try:
            machine = machine_from_cli(args.machine)
        except MachineError as error:
            print(f"error: {error}")
            return 2
    os.makedirs(args.out_dir, exist_ok=True)
    for name in names:
        scenario = registry[name]
        runner = scenario.runner or run_scenario
        try:
            payload = runner(
                scenario,
                corpus_size=args.corpus,
                repeats=args.repeats,
                warmup=args.warmup,
                profile=not args.no_profile,
                memory=args.memory,
                machine=machine,
            )
        except ValueError as error:
            print(f"error: {name}: {error}")
            return 2
        path = os.path.join(args.out_dir, bench_filename(name))
        write_json(path, payload)
        wall = payload["metrics"]["wall_time_s"]
        ops = payload["metrics"].get("ops_scheduled_per_s")
        ops_note = f", {ops['value']:.0f} ops/s" if ops else ""
        print(
            f"{name}: {wall['value']:.3f}s median (IQR {wall['iqr']:.3f}s)"
            f"{ops_note} over {payload['corpus_size']} loops -> {path}"
        )
    return 0
