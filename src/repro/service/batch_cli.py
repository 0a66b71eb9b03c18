"""``python -m repro batch``: the batch service's command line.

CLI::

    python -m repro batch --corpus 60 --jobs 4
    python -m repro batch examples/loops --jobs 2 --timeout 30
    python -m repro batch a.loop b.loop --cache-dir ci-cache --out m.json
    python -m repro batch --corpus 60 --jobs 4 --trace batch.jsonl
    python -m repro batch --corpus 30 --machine vliw-wide
    python -m repro batch --corpus 30 --sweep-machine cydra5 \\
        --sweep-machine vliw-wide --sweep-machine simd:depth=3
    python -m repro batch --corpus 60 --sweep-machine cydra5:load_latency=2 \\
        --sweep-machine cydra5:load_latency=27
    python -m repro batch --gc --max-cache-bytes 500M --max-cache-age 7d

Only ``repro batch`` and the names :mod:`repro.service` defers load
this module, so the library and the scheduling path never build its
parser.  :func:`batch_main` is two steps: :func:`parse_batch_args`
turns the command line into the :func:`~repro.service.batch.run_batch`
arguments it asks for, or raises :class:`BatchUsageError` (exit 2);
then :func:`_run` runs the batch and writes what the flags ask for.

``--machine`` and ``--load-latency`` resolve through
:func:`repro.machine.machine_from_cli`, as in the single-loop CLI, and
each ``--sweep-machine NAME[:k=v,...]`` names one machine of a sweep
the same way (a load-latency sweep sets ``load_latency`` per entry).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import ALGORITHMS
from repro.experiments.runner import sweep_layout
from repro.machine.registry import MachineError, machine_from_cli
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import Observer
from repro.obs.prof import Profiler
from repro.obs.progress import TTYProgress
from repro.obs.trace import Tracer
from repro.service.batch import run_batch
from repro.service.cache import DirectoryCache, collect_garbage
from repro.service.pool import DEFAULT_FLIGHT_CAPACITY

#: Default on-disk cache location for the CLI (API default is no cache).
DEFAULT_CACHE_DIR = ".repro-cache"


class BatchUsageError(Exception):
    """The command line asks for something the batch cannot run (CLI exits 2)."""


class BatchSourceError(BatchUsageError):
    """A source file could not be read or parsed (CLI exits 2)."""


# ----------------------------------------------------------------------
# Source loading (files / directories / generated corpus)
# ----------------------------------------------------------------------
def load_sources(paths: Sequence[str]) -> list:
    """Parse loop-language files (or directories of ``*.loop`` files).

    Raises :class:`BatchSourceError` with a one-line message naming the
    offending file on any read or parse problem.
    """
    from repro.frontend.parser import ParseError, parse_loop

    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(
                os.path.join(path, name)
                for name in os.listdir(path)
                if name.endswith(".loop")
            )
            if not entries:
                raise BatchSourceError(f"{path}: directory contains no .loop files")
            files.extend(entries)
        else:
            files.append(path)
    programs = []
    for path in files:
        try:
            with open(path) as handle:
                source = handle.read()
        except OSError as error:
            raise BatchSourceError(f"{path}: {error.strerror or error}") from error
        try:
            programs.append(parse_loop(source))
        except (ParseError, ValueError) as error:
            raise BatchSourceError(f"{path}: {error}") from error
    return programs


def _parse_faults(specs: Optional[Sequence[str]]) -> Optional[Dict[int, str]]:
    if not specs:
        return None
    faults: Dict[int, str] = {}
    for spec in specs:
        index, _, fault = spec.partition(":")
        faults[int(index)] = fault
    return faults


_SIZE_SUFFIXES = {"k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}
_AGE_SUFFIXES = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}


def parse_size(text: str) -> int:
    """``"500M"`` → bytes; bare numbers are bytes already."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([kmgtKMGT]?)[bB]?\s*", text)
    if not match:
        raise ValueError(f"cannot parse size {text!r} (try 500M, 2G, 1048576)")
    value = float(match.group(1))
    suffix = match.group(2).lower()
    return int(value * _SIZE_SUFFIXES.get(suffix, 1))


def parse_age(text: str) -> float:
    """``"7d"`` → seconds; bare numbers are seconds already."""
    match = re.fullmatch(r"\s*(\d+(?:\.\d+)?)\s*([smhdwSMHDW]?)\s*", text)
    if not match:
        raise ValueError(f"cannot parse age {text!r} (try 7d, 12h, 30m, 3600)")
    value = float(match.group(1))
    suffix = match.group(2).lower()
    return value * _AGE_SUFFIXES.get(suffix, 1.0)


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Schedule a corpus or loop files in parallel, with a "
        "content-addressed result cache.",
    )
    parser.add_argument(
        "sources",
        nargs="*",
        help="loop-language files or directories of *.loop files",
    )
    parser.add_argument(
        "--corpus",
        type=int,
        metavar="N",
        help="schedule the paper's generated N-loop corpus instead of files",
    )
    parser.add_argument(
        "--seed", type=int, default=1993, help="corpus seed (default 1993)"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes (default 1 = serial in-process)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="per-job wall-clock budget (default: unlimited)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"directory result cache root (default {DEFAULT_CACHE_DIR}; "
        "mutually exclusive with --cache-url)",
    )
    parser.add_argument(
        "--cache-url",
        default=None,
        metavar="URL",
        help="share a `repro serve` daemon's warm result cache over HTTP "
        "(mutually exclusive with --cache-dir); degrades to "
        "--cache-fallback-dir when the server is unreachable",
    )
    parser.add_argument(
        "--cache-fallback-dir",
        default=None,
        metavar="DIR",
        help="local directory cache used when --cache-url is unreachable "
        f"(default {DEFAULT_CACHE_DIR}; requires --cache-url)",
    )
    parser.add_argument(
        "--cache-auth-token",
        default=os.environ.get("REPRO_SERVER_TOKEN"),
        metavar="TOKEN",
        help="bearer token for --cache-url (default: $REPRO_SERVER_TOKEN)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache (no reads, no writes)",
    )
    parser.add_argument(
        "--gc",
        action="store_true",
        help="garbage-collect the --cache-dir cache instead of "
        "scheduling: evict entries past --max-cache-age, then the oldest "
        "past --max-cache-bytes",
    )
    parser.add_argument(
        "--max-cache-bytes",
        metavar="SIZE",
        help="gc bound: keep the cache under SIZE (accepts 500M, 2G, ...)",
    )
    parser.add_argument(
        "--max-cache-age",
        metavar="AGE",
        help="gc bound: evict entries older than AGE (accepts 7d, 12h, ...)",
    )
    parser.add_argument(
        "--algorithm",
        default="slack",
        help="scheduler algorithm (default slack)",
    )
    parser.add_argument(
        "--machine",
        metavar="NAME[:k=v,...]",
        default="cydra5",
        help="registered target machine with optional parameter "
        "overrides, e.g. vliw-wide or simd:depth=3 (default cydra5; "
        "see repro.machine.registry)",
    )
    parser.add_argument(
        "--load-latency",
        type=int,
        default=None,
        help="memory latency register, unless --machine sets load_latency "
        "(default: the machine's default; 13 for cydra5)",
    )
    parser.add_argument(
        "--sweep-machine",
        action="append",
        metavar="NAME[:k=v,...]",
        help="heterogeneous machine-grid sweep: schedule the whole "
        "input once per named machine in one batch (repeatable, e.g. "
        "--sweep-machine cydra5 --sweep-machine vliw-wide "
        "--sweep-machine simd:depth=3; a load-latency sweep is "
        "--sweep-machine cydra5:load_latency=2 "
        "--sweep-machine cydra5:load_latency=27)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="write the merged per-job scheduler trace (JSONL, each event "
        "tagged with its loop) — identical at any --jobs level",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help="write the per-loop LoopMetrics as a JSON array to PATH "
        "('-' writes the JSON to stdout and moves every status line "
        "to stderr)",
    )
    parser.add_argument(
        "--progress",
        dest="progress",
        action="store_true",
        default=None,
        help="force the live status line on stderr (default: only when "
        "stderr is a terminal)",
    )
    parser.add_argument(
        "--no-progress",
        dest="progress",
        action="store_false",
        help="suppress the live status line",
    )
    parser.add_argument(
        "--progress-log",
        metavar="PATH",
        help="append every progress event (submitted/started/finished/"
        "cached/failed/quarantined/straggler) as JSONL to PATH",
    )
    parser.add_argument(
        "--straggler-factor",
        type=float,
        default=4.0,
        metavar="K",
        help="flag jobs slower than K x the rolling median job latency "
        "(default 4.0)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write the merged service metrics registry (counters, "
        "gauges, latency quantiles) as JSON to PATH",
    )
    parser.add_argument(
        "--profile-out",
        metavar="PATH",
        help="write the merged profiler span snapshot as JSON to PATH",
    )
    parser.add_argument(
        "--flight-events",
        type=int,
        default=None,
        metavar="N",
        help="per-job flight-recorder ring capacity: the last N scheduler "
        "events attached to crash/timeout/failure records "
        f"(default {DEFAULT_FLIGHT_CAPACITY}; 0 disables the recorder)",
    )
    parser.add_argument(
        "--explain-failures",
        action="store_true",
        help="render a flight-recorder post-mortem on stderr for every "
        "failed/timed-out/crashed job that captured one",
    )
    parser.add_argument(
        "--history",
        metavar="DB",
        help="append this run's batch summary to a JSON-lines history "
        "file (see `python -m repro history`)",
    )
    parser.add_argument(
        "--inject",
        action="append",
        metavar="INDEX:FAULT",
        help=argparse.SUPPRESS,  # faults: crash | exit | raise | hang:N | stuck:N
    )
    return parser


def _programs(args) -> list:
    """The loops ``--corpus N`` or the source arguments name."""
    if args.corpus is not None and args.sources:
        raise BatchUsageError("pass either --corpus N or source files, not both")
    if args.corpus is not None:
        if args.corpus < 1:
            raise BatchUsageError("--corpus must be positive")
        from repro.workloads import paper_corpus

        return paper_corpus(args.corpus, seed=args.seed)
    if args.sources:
        return load_sources(args.sources)
    raise BatchUsageError("provide source files or --corpus N")


def _machines(args):
    """``(machine, sweep)``: the ``--machine`` target (with
    ``--load-latency``) and the sweep's machines, or None without one."""
    try:
        machine = machine_from_cli(args.machine, args.load_latency)
        sweep = None
        if args.sweep_machine:
            sweep = [machine_from_cli(text) for text in args.sweep_machine]
    except MachineError as error:
        raise BatchUsageError(str(error)) from error
    return machine, sweep


def parse_batch_args(
    argv: Optional[List[str]] = None,
) -> Tuple[argparse.Namespace, Optional[dict]]:
    """The parsed command line and the ``run_batch`` keyword arguments
    it asks for, which are None under ``--gc`` (it schedules nothing).

    Observation and the live status line are left to :func:`_run`.
    Raises :class:`BatchUsageError` naming the first problem found.
    """
    args = build_batch_parser().parse_args(argv)
    if args.cache_dir is not None and args.cache_url is not None:
        raise BatchUsageError("pass at most one of --cache-dir, --cache-url")
    if args.cache_fallback_dir is not None and args.cache_url is None:
        raise BatchUsageError("--cache-fallback-dir requires --cache-url")
    if args.gc:
        # --gc evicts from one local directory, never from a cache the
        # command line did not name.
        if args.cache_url is not None:
            raise BatchUsageError("--gc takes a --cache-dir, not --cache-url")
        if args.no_cache:
            raise BatchUsageError("--gc takes a --cache-dir, not --no-cache")
        return args, None
    if args.algorithm not in ALGORITHMS:
        raise BatchUsageError(
            f"unknown algorithm {args.algorithm!r}; "
            f"pick from {', '.join(sorted(ALGORITHMS))}"
        )
    programs = _programs(args)
    machine, sweep = _machines(args)
    machines = None
    if sweep is not None:
        programs, machines = sweep_layout(programs, sweep)

    cache_dir = args.cache_dir
    cache_fallback_dir = None
    if args.no_cache:
        cache_dir = None
    elif args.cache_url is not None:
        # HTTP cache; degrade to a local directory cache when the
        # server is unreachable so the batch always completes.
        cache_fallback_dir = args.cache_fallback_dir or DEFAULT_CACHE_DIR
    elif cache_dir is None:
        cache_dir = DEFAULT_CACHE_DIR

    if args.straggler_factor <= 1.0:
        raise BatchUsageError("--straggler-factor must exceed 1.0")
    flight_events = args.flight_events
    if flight_events is None:
        flight_events = DEFAULT_FLIGHT_CAPACITY
    if flight_events < 0:
        raise BatchUsageError("--flight-events must be >= 0")

    return args, dict(
        programs=programs,
        machine=machine,
        algorithm=args.algorithm,
        jobs=args.jobs,
        timeout=args.timeout,
        cache_dir=cache_dir,
        cache_url=None if args.no_cache else args.cache_url,
        cache_fallback_dir=cache_fallback_dir,
        cache_auth_token=args.cache_auth_token,
        machines=machines,
        faults=_parse_faults(args.inject),
        progress_log=args.progress_log,
        straggler_factor=args.straggler_factor,
        flight_events=flight_events,
    )


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
def _gc_main(args) -> int:
    """``batch --gc``: evict from the ``--cache-dir`` directory cache."""
    cache_dir = DEFAULT_CACHE_DIR if args.cache_dir is None else args.cache_dir
    try:
        max_bytes = parse_size(args.max_cache_bytes) if args.max_cache_bytes else None
        max_age = parse_age(args.max_cache_age) if args.max_cache_age else None
    except ValueError as error:
        raise BatchUsageError(str(error)) from error
    if not os.path.isdir(cache_dir):
        raise BatchUsageError(f"no cache at {cache_dir}")
    cache = DirectoryCache(cache_dir)
    report = collect_garbage(cache, max_bytes=max_bytes, max_age_seconds=max_age)
    print(cache.describe())
    print(report.summary())
    if max_bytes is None and max_age is None:
        print("(no --max-cache-bytes/--max-cache-age bound: inventory only)")
    return 0


def _dump_json(path: str, what: str, payload) -> bool:
    """Write ``payload`` as indented JSON; False after reporting a failure."""
    try:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write {what} to {path}: {exc}", file=sys.stderr)
        return False
    return True


def _run(args: argparse.Namespace, batch_args: dict) -> int:
    """Run the batch under the observation the flags ask for, then print
    its summary and write every requested output."""
    out_to_stdout = args.out == "-"
    # Status lines describe the run; with --out - they join the
    # diagnostics on stderr so stdout carries pure JSON.
    status_stream = sys.stderr if out_to_stdout else sys.stdout
    show_tty = args.progress
    if show_tty is None:
        show_tty = sys.stderr.isatty()
    observer = Observer(
        # --trace writes report.trace_records: its tracer only turns job
        # observation on and keeps no second copy of the events.
        Tracer() if args.trace else None,
        MetricsRegistry() if args.metrics_out else None,
        Profiler() if args.profile_out else None,
    )
    try:
        report = run_batch(
            **batch_args,
            observer=observer,
            progress=(
                TTYProgress(total=len(batch_args["programs"])) if show_tty else None
            ),
        )
    except OSError as exc:  # e.g. unwritable --progress-log
        print(f"error: {exc}", file=sys.stderr)
        return 2
    status_lines, diagnostics = report.summary_lines()
    print("\n".join(status_lines), file=status_stream)
    for line in diagnostics:
        print(line, file=sys.stderr)
    if args.explain_failures:
        from repro.obs.explain import flight_postmortem

        for result in report.results:
            if not result.ok and result.flight:
                print(
                    flight_postmortem(
                        result.name,
                        result.flight,
                        status=result.status,
                        error=result.error,
                    ),
                    file=sys.stderr,
                )
    if args.history:
        from repro.obs.history import HistoryStore, batch_report_payload

        try:
            run_id = HistoryStore(args.history).record_payload(
                "batch-cli", batch_report_payload(report)
            )
        except (OSError, ValueError) as exc:
            print(
                f"error: cannot record history to {args.history}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"history: run #{run_id} -> {args.history}", file=status_stream)
    if args.trace:
        records = report.trace_records or []
        try:
            with open(args.trace, "w") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}", file=sys.stderr)
            return 2
        print(
            f"trace: {len(records)} events ({report.observed_jobs} jobs) "
            f"-> {args.trace}",
            file=status_stream,
        )
    if args.metrics_out:
        if not _dump_json(args.metrics_out, "metrics registry", observer.metrics.dump()):
            return 2
        print(f"metrics registry -> {args.metrics_out}", file=status_stream)
    if args.profile_out:
        if not _dump_json(args.profile_out, "profile", observer.prof.snapshot()):
            return 2
        print(f"profile snapshot -> {args.profile_out}", file=status_stream)
    if args.progress_log:
        print(f"progress log -> {args.progress_log}", file=status_stream)
    if out_to_stdout:
        from repro.experiments.export import to_json

        print(to_json(report.loop_metrics))
    elif args.out:
        from repro.experiments.export import write_json

        try:
            write_json(report.loop_metrics, args.out)
        except OSError as exc:
            print(f"error: cannot write metrics to {args.out}: {exc}", file=sys.stderr)
            return 2
        print(
            f"metrics: {len(report.loop_metrics)} records -> {args.out}",
            file=status_stream,
        )
    return 0 if report.ok else 1


def batch_main(argv: Optional[List[str]] = None) -> int:
    try:
        args, batch_args = parse_batch_args(argv)
        if batch_args is None:
            return _gc_main(args)
    except BatchUsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    return _run(args, batch_args)
