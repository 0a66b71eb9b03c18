"""AST and IR records carry no per-instance ``__dict__``.

The paper corpus holds about 52k AST nodes, and every compiled loop
holds its operations, values, operands and arcs, so these records are
slotted dataclasses.  The tests fail when a record type in the front
end's AST, the IR, kernel code or the lifetime module keeps an instance
dict (an unslotted dataclass, or a slotted one under an unslotted
base), and check that slotted records still copy and pickle exactly.
"""

import copy
import dataclasses
import enum
import pickle

import numpy as np
import pytest

import repro.bounds.lifetimes
import repro.codegen.kernel
import repro.frontend.ast
import repro.ir.ddg
import repro.ir.loop
import repro.ir.operations
import repro.ir.values
from repro.bounds import schedule_lifetimes
from repro.codegen import generate_kernel
from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.frontend.ast import Assign
from repro.ir import build_ddg
from repro.machine import cydra5
from repro.regalloc import allocate_registers
from repro.service.keys import canonical_program
from repro.workloads import paper_corpus

RECORD_MODULES = (
    repro.frontend.ast,
    repro.ir.values,
    repro.ir.operations,
    repro.ir.ddg,
    repro.ir.loop,
    repro.codegen.kernel,
    repro.bounds.lifetimes,
)

#: Every dataclass those modules define: a new one is checked too.
RECORD_TYPES = frozenset(
    obj
    for module in RECORD_MODULES
    for obj in vars(module).values()
    if isinstance(obj, type)
    and dataclasses.is_dataclass(obj)
    and obj.__module__ == module.__name__
)

_ATOMS = (str, bytes, int, float, complex, type(None), enum.Enum, type, np.ndarray, np.generic)


def _has_instance_dict(cls) -> bool:
    return any("__dict__" in vars(klass) for klass in cls.__mro__)


def _reachable(roots):
    """Every object reachable from ``roots`` through containers and the
    attributes (dict or slots) of ``repro`` objects."""
    seen = {}
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _ATOMS):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, set, frozenset)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("repro."):
            if hasattr(obj, "__dict__"):
                stack.extend(vars(obj).values())
            for klass in type(obj).__mro__:
                slots = vars(klass).get("__slots__", ())
                for name in (slots,) if isinstance(slots, str) else slots:
                    if hasattr(obj, name):
                        stack.append(getattr(obj, name))
    return list(seen.values())


@pytest.fixture(scope="module")
def pipeline():
    """One corpus loop (an if-converted loop with memory dependences and
    all three value origins) taken from source to lifetimes."""
    program = next(p for p in paper_corpus(60, seed=1993) if p.name == "gen_both_0")
    machine = cydra5()
    body = compile_loop(program)
    ddg = build_ddg(body, machine)
    result = modulo_schedule(body, machine, ddg=ddg)
    assert result.success
    schedule = result.schedule
    assignment = allocate_registers(schedule)
    kernel = generate_kernel(schedule, assignment)
    lifetimes = schedule_lifetimes(body, ddg, schedule.times, schedule.ii)
    return program, body, [program, body, ddg, result, assignment, kernel, lifetimes]


def test_every_record_type_is_slotted():
    names = {cls.__name__ for cls in RECORD_TYPES}
    assert names >= {
        "Const", "Scalar", "Index", "ArrayRef", "Gather", "BinOp", "Unary",
        "Compare", "Assign", "Scatter", "If", "ExitIf", "DoLoop",
        "ArrayElementOrigin", "AddressOrigin", "ScalarOrigin", "Value", "Operand",
        "Operation", "Arc", "MemDep", "KernelOperand", "KernelOp", "KernelCode",
        "Lifetime",
    }
    assert sorted(cls.__name__ for cls in RECORD_TYPES if _has_instance_dict(cls)) == []


def test_no_record_on_the_pipeline_keeps_an_instance_dict(pipeline):
    *_, roots = pipeline
    records = [obj for obj in _reachable(roots) if type(obj) in RECORD_TYPES]
    assert {type(record).__name__ for record in records} >= {
        "DoLoop", "Assign", "If", "Compare", "BinOp", "ArrayRef", "Const",
        "Scalar", "Index", "ArrayElementOrigin", "AddressOrigin", "ScalarOrigin",
        "Value", "Operand", "Operation", "Arc", "MemDep", "KernelOperand",
        "KernelOp", "KernelCode", "Lifetime",
    }
    assert sorted({type(r).__name__ for r in records if hasattr(r, "__dict__")}) == []


@pytest.mark.parametrize(
    "clone",
    [lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_records_survive_pickle_and_deepcopy(pipeline, clone):
    program, body, _ = pipeline
    program_copy = clone(program)
    assert program_copy == program and program_copy is not program
    assigns = [stmt for stmt in program.body if isinstance(stmt, Assign)]
    assigns_copy = [stmt for stmt in program_copy.body if isinstance(stmt, Assign)]
    assert [hash(s.expr) for s in assigns_copy] == [hash(s.expr) for s in assigns]
    with pytest.raises(dataclasses.FrozenInstanceError):
        assigns_copy[0].expr = None

    body_copy = clone(body)
    assert canonical_program(body_copy) == canonical_program(body)
    assert repr(body_copy.ops) == repr(body.ops)
    assert repr(body_copy.values) == repr(body.values)
    # The Value <-> Operation cycle is rebuilt, not duplicated.
    for op in body_copy.ops:
        if op.dest is not None:
            assert op.dest.defop is op
        for operand in op.inputs():
            assert body_copy.values[operand.value.vid] is operand.value
