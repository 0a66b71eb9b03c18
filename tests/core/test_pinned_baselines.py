"""Pinned schedules of the four comparison algorithms: every II, effort
count and issue time must reproduce ``schedules_baselines.json``
exactly.

``test_pinned_schedules`` pins slack; this file pins Cydrome,
unidirectional, height and warp, whose macro nodes and recurrence sets
read the same placement-independent analysis.  Each record is keyed
``"<algorithm> <target> <loop>"`` and holds ``[ii, attempts,
placements, ejections, forced, issue times in oid order]`` as
:func:`baseline_records` computes them, for ``paper_corpus(120, 1993)``
on every registry target with the default options.
"""

import json
import pathlib

from repro.machine import build_machine, machine_names
from repro.workloads import paper_corpus
from tests.core.test_pinned_schedules import FIELDS, schedule_record

FIXTURE = pathlib.Path(__file__).with_name("schedules_baselines.json")
ALGORITHMS = ("cydrome", "unidirectional", "height", "warp")


def baseline_records():
    """``{"<algorithm> <target> <loop>": [ii, attempts, placements,
    ejections, forced, times]}`` for every pinned case, algorithm-major."""
    records = {}
    programs = paper_corpus(120, 1993)
    for algorithm in ALGORITHMS:
        for target in machine_names():
            machine = build_machine(target)
            for program in programs:
                key = f"{algorithm} {target} {program.name}"
                records[key] = schedule_record(program, machine, algorithm)
    return records


def test_baseline_schedules_match_the_pinned_records():
    expected = json.loads(FIXTURE.read_text())
    actual = baseline_records()
    assert list(actual) == list(expected), "the set of pinned cases changed"
    for key, record in expected.items():
        for field, now, then in zip(FIELDS, actual[key], record):
            assert now == then, f"{key}: {field} {now}, pinned {then}"
