"""Canonical cache keys for scheduling requests.

A cache key must be *stable*: the same ``(program, machine, algorithm,
options)`` must hash to the same SHA-256 on every run, every process,
and every ``PYTHONHASHSEED``.  Python's builtin ``hash()`` and set/dict
iteration order are therefore off limits; everything here reduces a
request to plain lists/dicts with explicitly sorted keys and then runs
the shared canonical serializer (:mod:`repro.canonical`) through
SHA-256.

The key covers every input the scheduler reads:

- the program — either a :class:`~repro.frontend.ast.DoLoop` AST
  (canonicalized structurally, *not* via the source printer, which is
  ambiguous for affine gathers) or an already-compiled
  :class:`~repro.ir.loop.LoopBody`;
- the machine description (unit classes, counts, latencies, pipelining);
- the algorithm name and every :class:`~repro.core.SchedulerOptions`
  knob;
- :data:`KEY_SCHEMA_VERSION`, bumped whenever the scheduler's observable
  behavior or the cached payload changes incompatibly, which invalidates
  every old cache entry at once.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from repro.canonical import canonical_digest, canonical_dumps
from repro.frontend import ast as fast
from repro.ir.loop import LoopBody
from repro.machine.machine import Machine

#: Bump to invalidate every previously cached result (schema change,
#: scheduler behavior change, LoopMetrics field change, ...).
KEY_SCHEMA_VERSION = 1


# ----------------------------------------------------------------------
# DoLoop canonicalization (structural, type-tagged)
# ----------------------------------------------------------------------
def _canon_expr(expr: fast.Expr) -> list:
    if isinstance(expr, fast.Const):
        return ["const", float(expr.value)]
    if isinstance(expr, fast.Scalar):
        return ["scalar", expr.name]
    if isinstance(expr, fast.Index):
        return ["index"]
    if isinstance(expr, fast.ArrayRef):
        return ["aref", expr.array, int(expr.stride), int(expr.offset)]
    if isinstance(expr, fast.Gather):
        return ["gather", expr.array, _canon_expr(expr.index)]
    if isinstance(expr, fast.BinOp):
        return ["bin", expr.op, _canon_expr(expr.left), _canon_expr(expr.right)]
    if isinstance(expr, fast.Unary):
        return ["un", expr.op, _canon_expr(expr.operand)]
    if isinstance(expr, fast.Compare):
        return ["cmp", expr.op, _canon_expr(expr.left), _canon_expr(expr.right)]
    raise TypeError(f"cannot canonicalize expression {expr!r}")


def _canon_target(target) -> list:
    if isinstance(target, fast.Scalar):
        return ["scalar", target.name]
    if isinstance(target, fast.ArrayRef):
        return ["aref", target.array, int(target.stride), int(target.offset)]
    if isinstance(target, fast.Scatter):
        return ["scatter", target.array, _canon_expr(target.index)]
    raise TypeError(f"cannot canonicalize assignment target {target!r}")


def _canon_stmt(stmt: fast.Stmt) -> list:
    if isinstance(stmt, fast.Assign):
        return ["assign", _canon_target(stmt.target), _canon_expr(stmt.expr)]
    if isinstance(stmt, fast.If):
        return [
            "if",
            _canon_expr(stmt.cond),
            [_canon_stmt(s) for s in stmt.then],
            [_canon_stmt(s) for s in stmt.orelse],
        ]
    if isinstance(stmt, fast.ExitIf):
        return ["exitif", _canon_expr(stmt.cond)]
    raise TypeError(f"cannot canonicalize statement {stmt!r}")


def _canon_doloop(program: fast.DoLoop) -> dict:
    return {
        "kind": "doloop",
        "name": program.name,
        "start": int(program.start),
        "trip": int(program.trip),
        "arrays": {name: int(size) for name, size in sorted(program.arrays.items())},
        "scalars": {
            name: float(value) for name, value in sorted(program.scalars.items())
        },
        "live_out": sorted(program.live_out),
        "body": [_canon_stmt(s) for s in program.body],
    }


# ----------------------------------------------------------------------
# LoopBody canonicalization
# ----------------------------------------------------------------------
def _jsonable(obj):
    """Best-effort reduction of free-form metadata to sortable JSON."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, dict):
        return {str(key): _jsonable(obj[key]) for key in sorted(obj, key=str)}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((_jsonable(item) for item in obj), key=repr)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__type__": type(obj).__name__,
            **_jsonable(dataclasses.asdict(obj)),
        }
    return repr(obj)


def _canon_origin(origin) -> Optional[list]:
    if origin is None:
        return None
    return [type(origin).__name__, _jsonable(dataclasses.asdict(origin))]


def _canon_operand(operand) -> list:
    return [operand.value.vid, int(operand.back)]


def _canon_loop_body(loop: LoopBody) -> dict:
    return {
        "kind": "loopbody",
        "name": loop.name,
        "finalized": bool(loop.finalized),
        "values": [
            [
                value.vid,
                value.name,
                value.dtype.value,
                value.kind.value,
                value.literal,
                _canon_origin(value.origin),
            ]
            for value in loop.values
        ],
        "ops": [
            [
                op.oid,
                op.opcode.value,
                None if op.dest is None else op.dest.vid,
                [_canon_operand(o) for o in op.operands],
                None if op.predicate is None else _canon_operand(op.predicate),
                _jsonable(op.attrs),
            ]
            for op in loop.ops
        ],
        "mem_deps": sorted(
            [dep.src, dep.dst, dep.omega, dep.latency] for dep in loop.mem_deps
        ),
        "live_out": {
            name: value.vid for name, value in sorted(loop.live_out.items())
        },
        "meta": _jsonable(loop.meta),
    }


# ----------------------------------------------------------------------
# Public surface
# ----------------------------------------------------------------------
def canonical_program(program: Union[fast.DoLoop, LoopBody]) -> dict:
    """Canonical JSON-safe form of a DoLoop AST or compiled LoopBody."""
    if isinstance(program, fast.DoLoop):
        return _canon_doloop(program)
    if isinstance(program, LoopBody):
        return _canon_loop_body(program)
    raise TypeError(f"cannot canonicalize program of type {type(program).__name__}")


def canonical_machine(machine: Machine) -> dict:
    """Canonical form of a machine description: its name and, per unit
    class in order, the count, pipelining and sorted (opcode, latency)
    pairs.  A registry machine and a hand-built one with the same name
    and unit classes therefore share keys; the registry provenance
    (``Machine.wire``) enters no key."""
    return {
        "name": machine.name,
        "units": [
            {
                "name": unit_class.name,
                "count": unit_class.count,
                "pipelined": unit_class.pipelined,
                "ops": sorted(
                    [opcode.value, int(latency)]
                    for opcode, latency in unit_class.op_latencies
                ),
            }
            for unit_class in machine.unit_classes
        ],
    }


def canonical_options(options) -> Optional[dict]:
    """Canonical form of SchedulerOptions (None stays None, meaning
    'driver defaults'; the defaults themselves are part of the driver,
    so a default change must bump :data:`KEY_SCHEMA_VERSION`)."""
    if options is None:
        return None
    return _jsonable(dataclasses.asdict(options))


def canonical_request(
    program: Union[fast.DoLoop, LoopBody],
    machine: Machine,
    algorithm: str = "slack",
    options=None,
) -> dict:
    """The full canonical request a cache key is derived from."""
    return {
        "schema_version": KEY_SCHEMA_VERSION,
        "algorithm": algorithm,
        "program": canonical_program(program),
        "machine": canonical_machine(machine),
        "options": canonical_options(options),
    }


def request_json(
    program: Union[fast.DoLoop, LoopBody],
    machine: Machine,
    algorithm: str = "slack",
    options=None,
) -> str:
    """Deterministic JSON encoding of the canonical request."""
    return canonical_dumps(canonical_request(program, machine, algorithm, options))


def cache_key(
    program: Union[fast.DoLoop, LoopBody],
    machine: Machine,
    algorithm: str = "slack",
    options=None,
) -> str:
    """Stable SHA-256 hex digest identifying one scheduling request."""
    return canonical_digest(canonical_request(program, machine, algorithm, options))


def machine_digest(machine: Machine) -> str:
    """Stable SHA-256 hex digest of a machine description alone.

    Used by the chunked execution backend to key its worker-resident
    machine cache: two jobs carrying equal machines (same units, counts,
    latencies, pipelining) share one deserialized machine per worker,
    however many jobs reference it.
    """
    return canonical_digest(canonical_machine(machine))
