"""Pinned rotating-register allocations: every register count and
specifier must reproduce ``allocations_paper_corpus.json`` exactly.

The schedule-level gates compare metrics that carry no register
assignment, so this file is what pins the allocator's output.  Each
record is keyed ``"<target> <loop> <fit>/<ordering>"`` and holds the RR
and ICR ``[registers, specifiers in vid order]`` that
:func:`allocation_records` computes.  The records cover
``paper_corpus(120, 1993)`` on every registry target with the default
strategy, and every fit x ordering on the named kernels on cydra5 and
gpu.
"""

import json
import pathlib

from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.machine import build_machine, machine_names
from repro.regalloc import FIT_STRATEGIES, ORDERINGS, allocate_registers
from repro.workloads import named_kernels, paper_corpus

FIXTURE = pathlib.Path(__file__).with_name("allocations_paper_corpus.json")
ALL_PAIRS = [(fit, ordering) for fit in FIT_STRATEGIES for ordering in ORDERINGS]
NAMED = {program.name for program in named_kernels()}  # the corpus's first 48 loops


def _pairs(target, program):
    if target in ("cydra5", "gpu") and program.name in NAMED:
        return ALL_PAIRS
    return [("end_fit", "adjacency")]


def _packed(allocation):
    specifiers = allocation.specifiers
    return [allocation.registers, [specifiers[vid] for vid in sorted(specifiers)]]


def allocation_records():
    """``{"<target> <loop> <fit>/<ordering>": [rr, icr]}`` for every pinned case."""
    records = {}
    for target in machine_names():
        machine = build_machine(target)
        for program in paper_corpus(120, 1993):
            loop = compile_loop(program)
            ddg = build_ddg(loop, machine)
            result = modulo_schedule(loop, machine, ddg=ddg)
            assert result.success, f"{program.name} on {target} did not schedule"
            for fit, ordering in _pairs(target, program):
                assignment = allocate_registers(
                    result.schedule, ddg, fit=fit, ordering=ordering
                )
                key = f"{target} {program.name} {fit}/{ordering}"
                records[key] = [_packed(assignment.rr), _packed(assignment.icr)]
    return records


def test_allocations_match_the_pinned_records():
    expected = json.loads(FIXTURE.read_text())
    actual = allocation_records()
    assert sorted(actual) == sorted(expected), "the set of pinned cases changed"
    for key, record in expected.items():
        assert actual[key] == record, (
            f"{key}: [rr, icr] = {actual[key]}, pinned {record}"
        )
