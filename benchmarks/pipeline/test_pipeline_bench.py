"""Tests of the pipeline benchmark itself, on 12-loop slices.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline -q``.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import workloads
import worker
from repro.simulator import initial_state, run_sequential
from repro.workloads import named_kernels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
#: Metrics that must repeat exactly: every per-layer count, and the
#: end-to-end metrics computed from schedules rather than clocks.
EXACT = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"} | {
    "ii_over_mii", "max_live_sum", "ops_per_cycle",
}


def run_slice(name, trace, scratch):
    bench = workloads.build(name, 1993, str(scratch), limit=12)
    result, _ = worker.measure(bench, seconds=0, trace=trace)
    return result


@pytest.fixture(autouse=True)
def scratch_tempdir(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))


@pytest.mark.parametrize("name", ["mix", "service"])
def test_emitted_names_match_benchmark_json(name, tmp_path):
    end_to_end = run_slice(name, False, tmp_path)
    per_layer = run_slice(name, True, tmp_path / "traced")
    assert end_to_end["correct"] and per_layer["correct"]
    if name == "service":  # every loop is sent cold, then warm
        layers = per_layer["metrics"]
        assert layers["service.misses"] == layers["service.hits"] == 12
        assert layers["service.warm_loops_per_s"] > 0
    # setup_s is measured by run.py across fresh processes, not by the worker.
    assert sorted([*end_to_end["metrics"], "setup_s"]) == sorted(
        m["name"] for m in SPEC["end_to_end"]
    )
    assert sorted(per_layer["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)


def test_exact_metrics_repeat_across_runs_and_hash_seeds(tmp_path):
    program = (
        "import json, tempfile, sys, workloads, worker\n"
        "tempfile.tempdir = sys.argv[1]\n"
        "out = {}\n"
        "for name in ('mix', 'service'):\n"
        "    for trace in (False, True):\n"
        "        bench = workloads.build(name, 1993, f'{sys.argv[1]}/{name}{trace}', limit=12)\n"
        "        result, _ = worker.measure(bench, seconds=0, trace=trace)\n"
        "        out.update({f'{name} {k}': v for k, v in result['metrics'].items()})\n"
        "print(json.dumps(out))\n"
    )
    runs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
        scratch = tmp_path / hash_seed
        scratch.mkdir()
        done = subprocess.run([sys.executable, "-c", program, str(scratch)], env=env,
                              stdout=subprocess.PIPE, text=True, check=True, timeout=300)
        runs.append(json.loads(done.stdout))
    exact = [key for key in runs[0] if key.split(" ")[1] in EXACT]
    assert len(exact) > 40
    assert {k: runs[0][k] for k in exact} == {k: runs[1][k] for k in exact}


def test_checker_flags_a_mutated_cell_and_accepts_nan():
    program = named_kernels()[0]
    reference = run_sequential(program, initial_state(program))
    other = reference.copy()
    assert workloads.state_mismatches(program, reference, other, "copy") == []

    array = next(iter(program.arrays))
    other.arrays[array][3] += 1e-12
    problems = workloads.state_mismatches(program, reference, other, "mutated")
    assert problems and f"{array}[3]" in problems[0]

    reference.arrays[array][3] = other.arrays[array][3] = math.nan
    assert workloads.state_mismatches(program, reference, other, "nan") == []
    assert not workloads.same_value(1.0, math.nan)


def test_trace_covers_the_loop_time(tmp_path):
    result = run_slice("mix", True, tmp_path)
    metrics = result["metrics"]
    assert metrics["trace.coverage"] >= 0.95
    assert metrics["core.ii_below_mii_loops"] == 0
    assert result["failed"] == 0
