"""A small FORTRAN-DO-loop language.

The paper's compiler modulo schedules FORTRAN77 DO loops whose bodies
are branch-free after if-conversion.  This module gives the same class
of programs a programmatic surface: innermost counted loops over 1-D
arrays with affine subscripts (``a(s*i + k)``), scalar recurrences,
conditionals (if-converted by the compiler), and indirect gathers and
scatters (which receive conservative memory dependences).

Example — the paper's Figure 1::

    loop = DoLoop(
        name="sample",
        start=2,
        trip=100,
        body=[
            Assign(ArrayRef("x"), ArrayRef("x", -1) + ArrayRef("y", -2)),
            Assign(ArrayRef("y"), ArrayRef("y", -1) + ArrayRef("x", -2)),
        ],
        arrays={"x": 102, "y": 102},
    )

``start`` plays the role of the FORTRAN lower bound: iteration k
accesses element ``stride * (start + k) + offset``, so a big enough
``start`` keeps every subscript in bounds (exactly like ``do i = 3, n``
in the paper's sample).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Union


class Expr:
    """Base class for expressions; supports operator overloading."""

    __slots__ = ()

    def __add__(self, other):
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other):
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other):
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other):
        return BinOp("*", _wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", _wrap(other), self)

    def __neg__(self):
        return Unary("neg", self)

    def __lt__(self, other):
        return Compare("<", self, _wrap(other))

    def __le__(self, other):
        return Compare("<=", self, _wrap(other))

    def __gt__(self, other):
        return Compare(">", self, _wrap(other))

    def __ge__(self, other):
        return Compare(">=", self, _wrap(other))


def _wrap(operand) -> "Expr":
    if isinstance(operand, Expr):
        return operand
    if isinstance(operand, (int, float)):
        return Const(float(operand))
    raise TypeError(f"cannot use {operand!r} in a loop expression")


@dataclasses.dataclass(frozen=True, slots=True)
class Const(Expr):
    """A floating-point literal."""

    value: float


@dataclasses.dataclass(frozen=True, slots=True)
class Scalar(Expr):
    """A scalar variable.  Loop-invariant unless assigned in the body."""

    name: str


@dataclasses.dataclass(frozen=True, slots=True)
class Index(Expr):
    """The loop index ``i`` (an integer induction variable)."""


@dataclasses.dataclass(frozen=True, slots=True)
class ArrayRef(Expr):
    """An affine array reference ``name(stride * i + offset)``."""

    array: str
    offset: int = 0
    stride: int = 1


@dataclasses.dataclass(frozen=True, slots=True)
class Gather(Expr):
    """An indirect load ``name(index_expr)`` (conservative mem deps)."""

    array: str
    index: Expr


@dataclasses.dataclass(frozen=True, slots=True)
class BinOp(Expr):
    """Arithmetic: op in {'+', '-', '*', '/', 'min', 'max'}."""

    op: str
    left: Expr
    right: Expr


@dataclasses.dataclass(frozen=True, slots=True)
class Unary(Expr):
    """Unary: op in {'neg', 'abs', 'sqrt'}."""

    op: str
    operand: Expr


@dataclasses.dataclass(frozen=True, slots=True)
class Compare(Expr):
    """Comparison producing a predicate: op in {'<','<=','>','>=','==','!='}."""

    op: str
    left: Expr
    right: Expr


class Stmt:
    """Base class for statements."""

    __slots__ = ()


@dataclasses.dataclass(frozen=True, slots=True)
class Assign(Stmt):
    """``target = expr`` where target is a Scalar, ArrayRef or Scatter."""

    target: Union[Scalar, ArrayRef, "Scatter"]
    expr: Expr


@dataclasses.dataclass(frozen=True, slots=True)
class Scatter:
    """An indirect store target ``name(index_expr)``."""

    array: str
    index: Expr


@dataclasses.dataclass(frozen=True, slots=True)
class If(Stmt):
    """A structured conditional (if-converted to predicated code)."""

    cond: Compare
    then: Sequence[Stmt]
    orelse: Sequence[Stmt] = ()


@dataclasses.dataclass(frozen=True, slots=True)
class ExitIf(Stmt):
    """An early exit: leave the loop when the condition holds.

    The paper's §6 notes such loops can be modulo scheduled (citing
    Tirumalai et al.) though its experiments did not use the feature.
    The compiler reproduces the predicated schema: a loop-carried "live"
    predicate gates every later side effect, so iterations issued
    speculatively after the exit condition fires are squashed.
    """

    cond: Compare


@dataclasses.dataclass(slots=True)
class DoLoop:
    """A complete DO loop: body plus its data environment.

    Attributes:
        name: Loop identifier (used in reports).
        body: Statement list.
        arrays: array name -> size in elements (contents are seeded by
            the workload / simulator).
        scalars: scalar name -> initial value.  Scalars assigned in the
            body become loop-carried recurrences; the rest are
            invariants.
        start: FORTRAN-style lower bound; iteration k touches element
            ``stride * (start + k) + offset``.
        trip: Iteration count used by the simulators.
        live_out: Scalars whose final values are read after the loop.
    """

    name: str
    body: List[Stmt]
    arrays: Dict[str, int] = dataclasses.field(default_factory=dict)
    scalars: Dict[str, float] = dataclasses.field(default_factory=dict)
    start: int = 2
    trip: int = 20
    live_out: List[str] = dataclasses.field(default_factory=list)

    def max_elements(self) -> Dict[str, int]:
        """Largest element index the loop can touch in each array through
        affine references (used to size simulation arrays), from one walk
        of the body.  Arrays no affine reference touches are absent, and
        no extent is below 0."""
        end = self.start + self.trip
        worst: Dict[str, int] = {}
        for ref in _walk_refs(self.body):
            if isinstance(ref, ArrayRef):
                worst[ref.array] = max(worst.get(ref.array, 0), ref.stride * end + ref.offset)
        return worst


def _walk_refs(stmts: Sequence[Stmt]):
    for stmt in stmts:
        if isinstance(stmt, Assign):
            yield from _walk_expr_refs(stmt.expr)
            if isinstance(stmt.target, ArrayRef):
                yield stmt.target
            elif isinstance(stmt.target, Scatter):
                yield from _walk_expr_refs(stmt.target.index)
        elif isinstance(stmt, If):
            yield from _walk_expr_refs(stmt.cond)
            yield from _walk_refs(stmt.then)
            yield from _walk_refs(stmt.orelse)
        elif isinstance(stmt, ExitIf):
            yield from _walk_expr_refs(stmt.cond)


def _walk_expr_refs(expr: Expr):
    if isinstance(expr, (ArrayRef,)):
        yield expr
    elif isinstance(expr, Gather):
        yield expr
        yield from _walk_expr_refs(expr.index)
    elif isinstance(expr, BinOp):
        yield from _walk_expr_refs(expr.left)
        yield from _walk_expr_refs(expr.right)
    elif isinstance(expr, Unary):
        yield from _walk_expr_refs(expr.operand)
    elif isinstance(expr, Compare):
        yield from _walk_expr_refs(expr.left)
        yield from _walk_expr_refs(expr.right)
