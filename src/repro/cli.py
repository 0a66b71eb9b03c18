"""Command-line interface: pipeline a loop-language file end to end.

    python -m repro path/to/loop.txt
    python -m repro loop.txt --algorithm cydrome --emit --simulate
    python -m repro --demo            # runs the paper's Figure 1 sample
    python -m repro --demo --trace t.jsonl --explain   # observability
    python -m repro bench             # benchmark harness -> BENCH_*.json
    python -m repro batch --corpus 60 --jobs 4         # scheduling service
    python -m repro batch --corpus 60 --jobs 4 --trace t.jsonl --cache-dir rc
    python -m repro batch --gc --max-cache-bytes 500M  # cache eviction
    python -m repro serve --port 8537 --cache-dir shared-cache  # daemon
    python -m repro batch --corpus 60 --cache-url http://localhost:8537
    python -m repro report --metrics m.json --out report.html  # HTML report
    python -m repro history record --db h.jsonl bench-out/     # bench history
    python -m repro history trend --db benchmarks/history.jsonl  # MAD anomaly scan

Prints lower bounds, the found schedule, register pressure against the
MinAvg bound, optionally the generated kernel-only VLIW code, and
optionally (``--simulate``) runs both the pipelined schedule on the
dataflow executor and the generated kernel on the VLIW executor, and
checks each against sequential semantics, naming the executor that
differs.

``--machine NAME[:k=v,...]`` names a registered target (default
``cydra5``) and ``--load-latency L`` sets its ``load_latency`` unless
the machine text already does; ``repro batch`` reads both flags the
same way, through :func:`repro.machine.machine_from_cli`.

Observability (all opt-in; the default run is quiet and untraced):
``--trace PATH`` records every scheduler decision (``--trace-format``
picks JSONL or Chrome trace-event JSON for chrome://tracing/Perfetto),
``--explain`` prints a post-mortem of the scheduling run,
``--metrics-out PATH`` dumps the MetricsRegistry snapshot as
schema-versioned JSON, and ``--verbose`` enables stdlib-logging
progress lines from the driver.

The ``bench`` subcommand runs named scenarios under a common protocol
(warmup, timed repeats with median/IQR, one profiled pass) and writes
``BENCH_<scenario>.json``; ``bench --compare OLD NEW
[--fail-on-regress]`` diffs two result sets with a noise-aware
threshold (see ``repro.obs.bench`` / ``repro.obs.regress``).

The ``batch`` subcommand schedules corpora as a service: serially
in-process or on a process pool (``--jobs``), a content-addressed result
cache in a fan-out directory (``--cache-dir``), its eviction
(``--gc --max-cache-bytes/--max-cache-age``), heterogeneous machine
sweeps (``--sweep-machine cydra5:load_latency=2 --sweep-machine
vliw-wide``), and a merged cross-process scheduler trace (``--trace``)
that is identical at any ``--jobs`` level.

The ``serve`` subcommand boots a long-lived scheduling daemon
(``repro.server``): ``POST /v1/schedule`` / ``POST /v1/batch`` with
canonical JSON responses, a shared result cache over HTTP
(``GET/PUT /v1/cache/<key>``, ETag conditional gets, optional bearer
auth), and ``/healthz`` + ``/metricz`` probes.  ``batch --cache-url``
points any batch run at that shared warm cache, with graceful
degradation to a local directory cache when the server is down.

The ``history`` subcommand keeps an append-only JSON-lines file of
bench envelopes and batch summaries, one run per line
(``benchmarks/history.jsonl`` is the committed trajectory): ``record``
ingests BENCH_*.json files, ``trend`` runs a rolling-median + MAD
anomaly scan over every metric series, and ``compare`` diffs two
recorded runs through ``bench --compare``'s printer, with provenance
warnings and span-level regression attribution (see
``repro.obs.history``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.bounds import MinDist, min_avg, rr_max_live
from repro.core import ALGORITHMS, modulo_schedule, validate_schedule
from repro.frontend import compile_loop
from repro.frontend.parser import ParseError, parse_loop
from repro.ir import build_ddg
from repro.machine import MachineError, machine_from_cli
from repro.obs import MetricsRegistry, Observer

_DEMO = """\
loop figure1
array x 60
array y 60
do i = 2, 41
    x(i) = x(i-1) + y(i-2)
    y(i) = y(i-1) + x(i-2)
end do
"""


def build_argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lifetime-sensitive modulo scheduling (Huff, PLDI 1993)",
    )
    parser.add_argument("source", nargs="?", help="loop-language file ('-' for stdin)")
    parser.add_argument("--demo", action="store_true", help="schedule the paper's Figure 1")
    parser.add_argument(
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default="slack",
        help="scheduler to use (default: slack)",
    )
    parser.add_argument(
        "--machine",
        metavar="NAME[:k=v,...]",
        default="cydra5",
        help="registered target machine, optionally with parameter "
        "overrides, e.g. vliw-wide or simd:depth=3,lanes=4 "
        "(default cydra5; see repro.machine.registry)",
    )
    parser.add_argument(
        "--load-latency",
        type=int,
        default=None,
        help="memory latency register, unless --machine sets load_latency "
        "(default: the machine's default; 13 for cydra5)",
    )
    parser.add_argument("--emit", action="store_true", help="print kernel-only VLIW code")
    parser.add_argument(
        "--simulate",
        action="store_true",
        help="run the pipelined schedule and the generated VLIW kernel, and "
        "check each against sequential execution",
    )
    parser.add_argument("--dump-ir", action="store_true", help="print the compiled loop body")
    parser.add_argument(
        "--paper-report",
        type=int,
        metavar="N",
        help="regenerate the paper's tables and figures over an N-loop corpus",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record every scheduler decision to PATH",
    )
    parser.add_argument(
        "--trace-format",
        choices=("jsonl", "chrome"),
        default="jsonl",
        help="trace file format: JSONL (replayable) or Chrome trace-event "
        "JSON for chrome://tracing / Perfetto (default: jsonl)",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print a post-mortem of the scheduling run (attempts, "
        "ejections, critical resource, MRT occupancy, lifetimes)",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="dump the run's metrics registry (counters/timers/histograms) "
        "as schema-versioned JSON after scheduling",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="log scheduler progress to stderr (default is quiet)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "bench":
        # Subcommand: the benchmark harness + regression gate (obs.bench).
        from repro.obs.bench import bench_main

        return bench_main(argv[1:])
    if argv and argv[0] == "batch":
        # Subcommand: the parallel scheduling service (repro.service).
        from repro.service.batch_cli import batch_main

        return batch_main(argv[1:])
    if argv and argv[0] == "serve":
        # Subcommand: the scheduling daemon + shared HTTP cache.
        from repro.server.app import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "report":
        # Subcommand: fuse observability artifacts into one HTML file.
        from repro.obs.report import report_main

        return report_main(argv[1:])
    if argv and argv[0] == "history":
        # Subcommand: append-only bench history + trends (obs.history).
        from repro.obs.history import history_main

        return history_main(argv[1:])
    args = build_argument_parser().parse_args(argv)
    level = logging.INFO if args.verbose else logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")
    if args.paper_report:
        from repro.experiments import full_report

        print(full_report(args.paper_report))
        return 0
    if args.demo:
        source = _DEMO
    elif args.source == "-":
        source = sys.stdin.read()
    elif args.source:
        try:
            with open(args.source) as handle:
                source = handle.read()
        except OSError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    else:
        print("error: provide a source file or --demo", file=sys.stderr)
        return 2

    try:
        program = parse_loop(source)
        loop = compile_loop(program)
    except (ParseError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    try:
        machine = machine_from_cli(args.machine, args.load_latency)
    except MachineError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    ddg = build_ddg(loop, machine)
    if args.dump_ir:
        print(loop.dump())
        print()

    # --trace and --explain import what they alone use, so a plain run
    # loads neither the trace writers nor the post-mortem.
    tracer = None
    if args.trace or args.explain:
        from repro.obs import CollectingTracer, explain, write_chrome_trace, write_jsonl

        tracer = CollectingTracer()
    observing = bool(args.trace or args.explain or args.metrics_out)
    metrics = MetricsRegistry() if observing else None
    result = modulo_schedule(
        loop, machine, algorithm=args.algorithm, ddg=ddg,
        observer=Observer(tracer, metrics),
    )
    if args.trace:
        try:
            if args.trace_format == "chrome":
                write_chrome_trace(tracer.events, args.trace)
            else:
                write_jsonl(tracer.events, args.trace)
        except OSError as exc:
            print(f"error: cannot write trace to {args.trace}: {exc}", file=sys.stderr)
            return 1
        print(f"trace: {len(tracer.events)} events -> {args.trace} ({args.trace_format})")
    if args.metrics_out:
        from repro.obs.bench import METRICS_SCHEMA, wrap_payload, write_json

        payload = wrap_payload(
            METRICS_SCHEMA,
            {
                "loop": loop.name,
                "algorithm": args.algorithm,
                "metrics": metrics.snapshot(),
            },
        )
        try:
            write_json(args.metrics_out, payload)
        except OSError as exc:
            print(
                f"error: cannot write metrics to {args.metrics_out}: {exc}",
                file=sys.stderr,
            )
            return 1
        print(f"metrics: registry snapshot -> {args.metrics_out}")
    print(
        f"{loop.name}: ResMII={result.res_mii} RecMII={result.rec_mii} "
        f"MII={result.mii}"
    )
    if not result.success:
        print(f"FAILED to pipeline (last attempted II={result.last_attempted_ii})")
        if args.explain:
            print()
            print(explain(result, tracer.events, metrics, ddg=ddg))
        return 1
    schedule = result.schedule
    print(
        f"scheduled at II={schedule.ii} "
        f"({'optimal' if result.optimal else 'suboptimal'}), "
        f"span={schedule.span}, stages={schedule.stages}"
    )
    violations = validate_schedule(schedule, ddg)
    if violations:
        print("INVALID SCHEDULE:")
        for violation in violations[:10]:
            print(f"  {violation}")
        return 1

    pressure = rr_max_live(loop, ddg, schedule.times, schedule.ii)
    bound = min_avg(loop, ddg, MinDist(ddg, schedule.ii), schedule.ii)
    print(f"register pressure: MaxLive={pressure} (MinAvg bound {bound})")
    print(schedule.render())

    if args.explain:
        print()
        print(explain(result, tracer.events, metrics, ddg=ddg))

    # The back end (register allocation, codegen, simulators) loads only
    # for --emit and --simulate, like the trace writers above.
    if args.emit or args.simulate:
        from repro.codegen import generate_kernel
        from repro.regalloc import allocate_registers

        kernel = generate_kernel(schedule, allocate_registers(schedule, ddg))
    if args.emit:
        from repro.codegen import emit_kernel

        print()
        print(emit_kernel(kernel))

    if args.simulate:
        from repro.simulator import (
            initial_state,
            run_pipelined,
            run_sequential,
            state_mismatches,
        )
        from repro.simulator.vliw import run_vliw

        sequential = run_sequential(program, initial_state(program))
        finals = {
            "dataflow executor": run_pipelined(schedule, initial_state(program)),
            "VLIW executor": run_vliw(kernel, initial_state(program)),
        }
        status = 0
        for executor, final in finals.items():
            mismatches = state_mismatches(program, sequential, final)
            if mismatches:
                status = 1
                print(f"SIMULATION MISMATCH: {len(mismatches)} locations differ "
                      f"in the {executor}")
                for mismatch in mismatches[:10]:
                    print(f"  {mismatch}")
            else:
                print(f"simulation: the {executor} matches sequential over "
                      f"{program.trip} iterations")
        return status
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
