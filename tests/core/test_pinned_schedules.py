"""Pinned slack schedules: every II, effort count and issue time must
reproduce ``schedules_paper_corpus.json`` and ``schedules_large.json``
exactly.

The scheduler's vectorized kernels are required to make the same
decision as their scalar references at every step; this file pins the
outcome of all those decisions.  Each record is keyed
``"<target> <loop>"`` and holds ``[ii, attempts, placements,
ejections, forced, issue times in oid order]``.
:func:`schedule_records` computes them for ``paper_corpus(300, 1993)``
on every registry target with the default options;
:func:`large_records` for every loop of 48 to 128 real ops in the full
``paper_corpus(seed=1993)`` on cydra5 (the pipeline benchmark's
``large`` loops, whose ejection-heavy schedules the 300-loop corpus
mostly misses).
"""

import json
import pathlib

from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import build_machine, cydra5, machine_names
from repro.workloads import paper_corpus

FIXTURE = pathlib.Path(__file__).with_name("schedules_paper_corpus.json")
LARGE_FIXTURE = pathlib.Path(__file__).with_name("schedules_large.json")
#: Real-op counts of the pinned large loops.
LARGE_OPS = range(48, 129)
FIELDS = ("ii", "attempts", "placements", "ejections", "forced", "times")


def schedule_record(program, machine, algorithm="slack"):
    """``[ii, attempts, placements, ejections, forced, times]`` of one
    loop scheduled on a freshly built graph."""
    loop = compile_loop(program)
    result = modulo_schedule(loop, machine, algorithm, ddg=build_ddg(loop, machine))
    stats = result.stats
    times = (
        [result.schedule.times[op.oid] for op in loop.ops] if result.success else None
    )
    return [
        result.ii, stats.attempts, stats.placements, stats.ejections,
        stats.forced, times,
    ]


def schedule_records():
    """``{"<target> <loop>": [ii, attempts, placements, ejections,
    forced, times]}`` for every pinned case, target-major."""
    records = {}
    programs = paper_corpus(300, 1993)
    for target in machine_names():
        machine = build_machine(target)
        for program in programs:
            records[f"{target} {program.name}"] = schedule_record(program, machine)
    return records


def large_records():
    """``{"cydra5 <loop>": [ii, attempts, placements, ejections, forced,
    times]}`` for every loop of ``paper_corpus(seed=1993)`` with 48 to
    128 real ops, in corpus order."""
    machine = cydra5()
    return {
        f"cydra5 {program.name}": schedule_record(program, machine)
        for program in paper_corpus(seed=1993)
        if len(compile_loop(program).real_ops) in LARGE_OPS
    }


def assert_matches(fixture, actual):
    expected = json.loads(fixture.read_text())
    assert list(actual) == list(expected), "the set of pinned cases changed"
    for key, record in expected.items():
        for field, now, then in zip(FIELDS, actual[key], record):
            assert now == then, f"{key}: {field} {now}, pinned {then}"


def test_schedules_match_the_pinned_records():
    assert_matches(FIXTURE, schedule_records())


def test_large_schedules_match_the_pinned_records():
    assert_matches(LARGE_FIXTURE, large_records())
