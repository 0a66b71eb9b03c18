"""Loop body container and builder.

A :class:`LoopBody` is the unit of modulo scheduling: a branch-free,
if-converted, SSA-form loop body (paper §2.2, §5.1).  After
:meth:`LoopBody.finalize` it always contains the two pseudo-operations
``Start`` (oid 0, a predecessor of every operation) and ``Stop`` (the
last oid, a successor of every operation), which make Estart/Lstart well
defined during scheduling (§4.1).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.operations import Opcode, Operation
from repro.ir.types import DType, ValueKind
from repro.ir.values import Operand, Origin, Value


@dataclasses.dataclass(frozen=True, slots=True)
class MemDep:
    """A memory-ordering dependence discovered by the front end.

    Constrains ``dst`` to issue at least ``latency`` cycles after the
    instance of ``src`` from ``omega`` iterations earlier.
    """

    src: int
    dst: int
    omega: int
    latency: int = 1


class LoopBody:
    """A modulo-schedulable loop body plus its builder API.

    Operations and values are created through the ``new_*``/``add_op``
    methods so they receive dense ids; dense ids double as matrix indices
    throughout the bounds and scheduling code.
    """

    def __init__(self, name: str):
        self.name = name
        self.ops: List[Operation] = []
        self.values: List[Value] = []
        self.mem_deps: List[MemDep] = []
        #: Free-form metadata: ``has_conditional``, ``n_basic_blocks``,
        #: ``trip_count``, ``arrays`` (name -> initial list), ``scalars``
        #: (name -> initial float), ``live_out`` (scalar names), ...
        self.meta: Dict[str, object] = {}
        #: Maps live-out scalar names to the value holding the scalar's
        #: running copy (read after the loop exits).
        self.live_out: Dict[str, Value] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------
    def new_value(
        self,
        name: str,
        dtype: DType,
        kind: ValueKind = ValueKind.VARIANT,
        literal: Optional[float] = None,
        origin: Origin = None,
    ) -> Value:
        """Create a fresh value with the next dense id."""
        value = Value(
            vid=len(self.values),
            name=name,
            dtype=dtype,
            kind=kind,
            literal=literal,
            origin=origin,
        )
        self.values.append(value)
        return value

    def invariant(self, name: str, dtype: DType = DType.FLOAT) -> Value:
        """Create (or fetch) a loop-invariant value held in the GPR file."""
        for value in self.values:
            if value.is_invariant and value.name == name and value.dtype == dtype:
                return value
        return self.new_value(name, dtype, ValueKind.INVARIANT)

    def constant(self, literal: float, dtype: DType = DType.FLOAT) -> Value:
        """Create (or fetch) a compile-time constant."""
        for value in self.values:
            if value.is_constant and value.literal == literal and value.dtype == dtype:
                return value
        return self.new_value(f"#{literal}", dtype, ValueKind.CONSTANT, literal=literal)

    def add_op(
        self,
        opcode: Opcode,
        dest: Optional[Value] = None,
        operands: Iterable[Operand] = (),
        predicate: Optional[Operand] = None,
        **attrs: object,
    ) -> Operation:
        """Append an operation; wires up SSA def links."""
        if self._finalized:
            raise RuntimeError("cannot add operations to a finalized loop body")
        op = Operation(
            oid=len(self.ops),
            opcode=opcode,
            dest=dest,
            operands=list(operands),
            predicate=predicate,
            attrs=dict(attrs),
        )
        if dest is not None:
            if not dest.is_variant:
                raise ValueError(f"operation destination must be a variant: {dest}")
            if dest.defop is not None:
                raise ValueError(f"SSA violation: {dest} already defined by {dest.defop}")
            dest.defop = op
        self.ops.append(op)
        return op

    def add_mem_dep(self, src: Operation, dst: Operation, omega: int, latency: int = 1) -> None:
        """Record a memory-ordering dependence between two memory ops."""
        self.mem_deps.append(MemDep(src.oid, dst.oid, omega, latency))

    def finalize(self) -> "LoopBody":
        """Insert Start/Stop pseudo ops and freeze the op list.

        Start becomes oid 0 (all existing oids shift by one) and Stop
        becomes the final oid.  Returns ``self`` for chaining.
        """
        if self._finalized:
            return self
        start = Operation(oid=0, opcode=Opcode.START)
        for op in self.ops:
            op.oid += 1
        self.mem_deps = [
            MemDep(dep.src + 1, dep.dst + 1, dep.omega, dep.latency)
            for dep in self.mem_deps
        ]
        self.ops.insert(0, start)
        stop = Operation(oid=len(self.ops), opcode=Opcode.STOP)
        self.ops.append(stop)
        self._finalized = True
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def start(self) -> Operation:
        if not self._finalized:
            raise RuntimeError("loop body is not finalized")
        return self.ops[0]

    @property
    def stop(self) -> Operation:
        if not self._finalized:
            raise RuntimeError("loop body is not finalized")
        return self.ops[-1]

    @property
    def real_ops(self) -> List[Operation]:
        """Operations excluding the Start/Stop pseudo ops."""
        if not self._finalized:
            return list(self.ops)
        return self.ops[1:-1]

    @property
    def n_ops(self) -> int:
        """Total operation count including pseudo ops once finalized."""
        return len(self.ops)

    def uses_of(self, value: Value) -> List[Tuple[Operation, Operand]]:
        """All (operation, operand) pairs reading ``value``."""
        found = []
        for op in self.ops:
            for operand in op.inputs():
                if operand.value is value:
                    found.append((op, operand))
        return found

    def brtop(self) -> Optional[Operation]:
        """The loop-closing branch, if the body has one."""
        for op in self.ops:
            if op.is_branch:
                return op
        return None

    def eliminate_dead_code(self) -> int:
        """Remove operations whose results are never used.

        Must be called before :meth:`finalize`.  Returns the number of
        operations removed.  Side-effecting operations and definitions of
        live-out values are always kept.
        """
        if self._finalized:
            raise RuntimeError("cannot run DCE on a finalized loop body")
        live_values = set(self.live_out.values())
        removed_total = 0
        while True:
            used = set(live_values)
            for op in self.ops:
                for operand in op.inputs():
                    used.add(operand.value)
            dead = [
                op
                for op in self.ops
                if not op.has_side_effect and op.dest is not None and op.dest not in used
            ]
            if not dead:
                break
            dead_set = set(dead)
            self.ops = [op for op in self.ops if op not in dead_set]
            removed_total += len(dead)
        # Remap memory deps through op identity before renumbering, then
        # drop any that lost an endpoint (possible for loads whose result
        # turned out dead).
        surviving = {op.oid: op for op in self.ops}
        remapped = [
            (surviving.get(dep.src), surviving.get(dep.dst), dep.omega, dep.latency)
            for dep in self.mem_deps
        ]
        # Re-number ops densely and drop orphaned values.
        for oid, op in enumerate(self.ops):
            op.oid = oid
        self.mem_deps = [
            MemDep(src.oid, dst.oid, omega, latency)
            for src, dst, omega, latency in remapped
            if src is not None and dst is not None
        ]
        alive_ops = set(self.ops)
        self.values = [
            value
            for value in self.values
            if not value.is_variant or value.defop in alive_ops
        ]
        for vid, value in enumerate(self.values):
            value.vid = vid
        return removed_total

    def dump(self) -> str:
        """Readable multi-line listing of the loop body."""
        lines = [f"loop {self.name}:"]
        for op in self.ops:
            lines.append(f"  {op!r}")
        for dep in self.mem_deps:
            lines.append(f"  memdep {dep.src} -> {dep.dst} (omega={dep.omega})")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"LoopBody({self.name!r}, {len(self.ops)} ops, {len(self.values)} values)"
