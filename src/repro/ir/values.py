"""SSA values and operand references for the loop IR.

The loop body is kept in static single assignment form (paper §5.1):
each :class:`Value` has exactly one defining operation, which gives every
value a unique lifetime and a precise set of flow dependencies.  A use of
a value produced ``back`` iterations earlier is represented by an
:class:`Operand` with ``back > 0``; the corresponding flow-dependence arc
in the DDG carries ``omega == back``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Union

from repro.ir.types import DType, ValueKind


@dataclasses.dataclass(frozen=True, slots=True)
class ArrayElementOrigin:
    """The value equals ``array[stride * j + offset]`` in iteration j.

    ``offset`` is an *absolute* element index (the loop's start index is
    already folded in).  The front end attaches this to values flowing
    through load/store elimination so a simulator can fetch initial
    (pre-loop) array contents for loop-carried uses whose producing
    iteration precedes the loop.
    """

    array: str
    stride: int
    offset: int

    def element(self, iteration: int) -> int:
        return self.stride * iteration + self.offset


@dataclasses.dataclass(frozen=True, slots=True)
class AddressOrigin:
    """The value equals ``base + stride * j`` in iteration j.

    Used for address induction variables (``array`` names the array the
    address walks) and for the loop index itself (``array`` is None,
    stride 1, base = the loop's start index).
    """

    array: Optional[str]
    stride: int
    base: int

    def at(self, iteration: int) -> int:
        return self.base + self.stride * iteration


@dataclasses.dataclass(frozen=True, slots=True)
class ScalarOrigin:
    """Records that a value carries the running copy of scalar ``name``."""

    name: str


Origin = Union[ArrayElementOrigin, AddressOrigin, ScalarOrigin, None]


@dataclasses.dataclass(eq=False, slots=True)
class Value:
    """A single SSA value.

    Attributes:
        vid: Dense integer id, unique within one :class:`~repro.ir.loop.LoopBody`.
        name: Human-readable name (used in dumps and emitted assembly).
        dtype: Scalar type, which also selects the register file.
        kind: VARIANT / INVARIANT / CONSTANT (see :class:`ValueKind`).
        literal: Constant payload for CONSTANT values.
        defop: The defining operation for VARIANT values (set by the
            :class:`~repro.ir.loop.LoopBody` when the def is added).
        origin: Optional note of which source-level entity the value
            carries, used to seed loop-carried live-in values.
    """

    vid: int
    name: str
    dtype: DType
    kind: ValueKind = ValueKind.VARIANT
    literal: Optional[float] = None
    defop: Optional["Operation"] = None  # noqa: F821 - forward ref
    origin: Origin = None

    @property
    def is_variant(self) -> bool:
        return self.kind is ValueKind.VARIANT

    @property
    def is_invariant(self) -> bool:
        return self.kind is ValueKind.INVARIANT

    @property
    def is_constant(self) -> bool:
        return self.kind is ValueKind.CONSTANT

    @property
    def in_rotating_file(self) -> bool:
        """True if the value occupies a rotating register (RR or ICR)."""
        return self.is_variant

    def __repr__(self) -> str:
        return f"Value({self.vid}:{self.name}:{self.dtype.value})"


@dataclasses.dataclass(frozen=True, slots=True)
class Operand:
    """A use of a value, possibly from an earlier iteration.

    ``back`` is the iteration distance: an operand ``(v, back=2)`` read in
    iteration ``k`` refers to the instance of ``v`` defined in iteration
    ``k - 2``.  Invariants and constants always use ``back == 0``.
    """

    value: Value
    back: int = 0

    def __post_init__(self) -> None:
        if self.back < 0:
            raise ValueError(f"operand distance must be >= 0, got {self.back}")
        if self.back and not self.value.is_variant:
            raise ValueError("only loop variants can be read across iterations")

    @property
    def is_loop_carried(self) -> bool:
        return self.back > 0

    def __repr__(self) -> str:
        if self.back:
            return f"{self.value.name}[-{self.back}]"
        return self.value.name
