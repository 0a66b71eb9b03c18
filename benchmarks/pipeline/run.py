"""End-to-end pipeline benchmark: DSL source through simulation, per workload.

One run of one workload (the last stdout line is the JSON result)::

    python3 benchmarks/pipeline/run.py --workload mix --seed 7 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer ones.  Every workload, tracing off then on, with a
readable summary, per-pass samples and a Chrome trace::

    python3 benchmarks/pipeline/run.py --seed 1993 [--out bench.json] [--workload NAME]...

This writes the report (default ``benchmarks/pipeline/out/bench.json``)
and its Chrome trace beside it (``bench.trace.json``).  Both forms exit 1
when an output check fails and 2 when the repro sources are missing.

Each run starts the workload in a fresh worker process (worker.py) and
four more that only set up, so ``setup_s`` is the median of five
fresh-process set-ups.  Scratch files live in
``benchmarks/pipeline/.scratch/`` and are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_OUT = HERE / "out" / "bench.json"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """A worker failed or reported metrics that BENCHMARK.json does not name."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(args: List[str], scratch: Path) -> dict:
    """Start a worker, wait for it, return its JSON plus ``setup_s``: the
    time from spawn to the end of set-up, scaled to the reference host
    speed (worker.py)."""
    command = [sys.executable, str(HERE / "worker.py"), *args, "--scratch", str(scratch)]
    started = time.time()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = (result.pop("ready_at") - started) * result.pop("setup_scale")
    return result


def run_once(spec: dict, workload: str, seed: int, seconds: float, trace: int,
             scratch: Path, detail: Optional[Path] = None) -> dict:
    """One benchmark run; returns the result with units and ``setup_samples``."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    scratch = scratch / f"{workload}-trace{trace}"  # service caches start empty
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(args + ["--setup-only"], scratch)["setup_s"])
    result = spawn(args + (["--detail", str(detail)] if detail else []), scratch)
    setups.append(result["setup_s"])
    values = result["metrics"]
    if not trace:
        values["setup_s"] = statistics.median(setups)
    declared = spec["per_layer" if trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in declared):
        raise BenchError(
            f"{workload}: metrics {sorted(values)} do not match BENCHMARK.json"
        )
    for problem in result["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    print(f"{workload}: probe_drift {result['probe_drift']:+.3f}", file=sys.stderr)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
        "setup_samples": setups,
        "probe_drift": result["probe_drift"],
    }


def quartiles(values: List[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "iqr": 0.0, "samples": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr": q3 - q1, "samples": values}


def run_suite(spec: dict, workloads: List[str], seed: int, seconds: float,
              scratch: Path, out: Path) -> bool:
    """Every workload with tracing off then on; writes ``out`` and its trace."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    events = []
    ok = True
    for pid, workload in enumerate(workloads):
        entry = {}
        for trace in (0, 1):
            detail_path = scratch / f"detail-{workload}-{trace}.json"
            result = run_once(spec, workload, seed, seconds, trace, scratch, detail_path)
            with open(detail_path) as handle:
                detail = json.load(handle)
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
            ok = ok and result["correct"]
            for event in detail.pop("trace_events"):
                event["pid"] = pid
                events.append(event)
            section = "per_layer" if trace else "end_to_end"
            entry[section] = result["metrics"]
            entry[f"{section}_run"] = {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "probe_drift": result["probe_drift"],
                "passes": detail["passes"],
                "pass_loops_per_s": quartiles(
                    [p["loops_per_s"] for p in detail["passes"] if not p["traced"]]
                ),
                "pass_wall_loops_per_s": quartiles(
                    [p["wall_loops_per_s"] for p in detail["passes"] if not p["traced"]]
                ),
                "loops": detail["loops"],
                "loop_samples": detail["loop_samples"],
            }
            if not trace:
                entry["setup_s"] = quartiles(result["setup_samples"])
        report["workloads"][workload] = entry
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    with open(out.with_suffix(".trace.json"), "w") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1],
    )
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one run of one workload; omit for the whole suite")
    parser.add_argument("--out", type=Path, help=f"suite report (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; pick from {known}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    scratch = HERE / ".scratch" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    # Terminated, still kill the worker (spawn) and remove the scratch.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        if args.trace is not None:
            if len(workloads) != 1:
                parser.error("--trace runs exactly one --workload")
            result = run_once(spec, workloads[0], args.seed, seconds, args.trace, scratch)
            print(json.dumps({key: result[key] for key in
                              ("correct", "attempted", "failed", "metrics")}))
            return 0 if result["correct"] else 1
        out = args.out or DEFAULT_OUT
        out.parent.mkdir(parents=True, exist_ok=True)
        ok = run_suite(spec, workloads, args.seed, seconds, scratch, out)
        return 0 if ok else 1
    except BenchError as error:
        print(error, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
