"""Compile a :class:`~repro.frontend.ast.DoLoop` to a schedulable loop body.

This reproduces the relevant parts of the Cydrome front end the paper
relies on:

* **If-conversion** (§2.2): conditionals become predicated code.
  Comparisons define ICR predicates; operations in a branch are guarded
  by the branch predicate; scalar assignments merge through ``select``
  operations (the compiler "allocates registers as if all predicates may
  be true", so both arms contribute register pressure, as in the paper).
* **Address induction variables**: each (array, stride) access class
  walks one rotating address register, bumped by an ``addra`` with a
  distance-1 self-recurrence; the per-reference displacement folds into
  the memory operation.  Addresses are modeled in element units.
* **Dependence analysis with exact omegas** (§3.1): affine references to
  the same array yield dependences labeled with their exact iteration
  distance; incommensurable or indirect references get conservative
  ordering arcs.
* **Load/store elimination** (§2.3): a load whose value was stored a
  known number of iterations earlier becomes a register flow dependence
  with that omega — the optimization that creates the long rotating
  lifetimes of Figure 3.  Redundant loads of earlier-read elements are
  likewise replaced by cross-iteration register reuse.
* **Local CSE and dead-code elimination**, SSA construction, and the
  ``brtop`` loop-closing branch.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.ast import (
    ArrayRef,
    Assign,
    BinOp,
    Compare,
    Const,
    DoLoop,
    ExitIf,
    Expr,
    Gather,
    If,
    Index,
    Scalar,
    Scatter,
    Stmt,
    Unary,
)
from repro.ir.loop import LoopBody
from repro.ir.operations import Opcode, Operation
from repro.ir.types import DType, ValueKind
from repro.ir.values import AddressOrigin, ArrayElementOrigin, Operand, ScalarOrigin, Value

#: What the pre-scan records of each array store and load:
#: (array, stride, absolute offset, guarded[, stored expression]).
_Store = Tuple[str, Optional[int], Optional[int], bool, Expr]
_Load = Tuple[str, Optional[int], Optional[int], bool]

_BINOP_FLOAT = {
    "+": Opcode.ADD_F,
    "-": Opcode.SUB_F,
    "*": Opcode.MUL_F,
    "/": Opcode.DIV_F,
    "min": Opcode.MIN_F,
    "max": Opcode.MAX_F,
}
_BINOP_INT = {"+": Opcode.ADD_I, "-": Opcode.SUB_I, "*": Opcode.MUL_I, "/": Opcode.DIV_I}
_UNARY = {"neg": Opcode.NEG_F, "abs": Opcode.ABS_F, "sqrt": Opcode.SQRT_F}
_COMPARE = {
    "<": Opcode.CMP_LT,
    "<=": Opcode.CMP_LE,
    ">": Opcode.CMP_GT,
    ">=": Opcode.CMP_GE,
    "==": Opcode.CMP_EQ,
    "!=": Opcode.CMP_NE,
}


@dataclasses.dataclass
class _MemAccess:
    """One generated memory operation, recorded for dependence analysis."""

    op: Operation
    array: str
    is_store: bool
    stride: Optional[int]  # None for gathers/scatters
    abs_offset: Optional[int]
    order: int


class CompileError(ValueError):
    """The DoLoop program is malformed (e.g. an undeclared scalar)."""


def _intish(operand: Operand) -> bool:
    """True if the operand can participate in integer/address arithmetic."""
    if operand.value.dtype in (DType.INT, DType.ADDR):
        return True
    return bool(
        operand.value.is_constant
        and operand.value.literal is not None
        and float(operand.value.literal).is_integer()
    )


class LoopCompiler:
    """Single-use compiler from one DoLoop to one LoopBody."""

    def __init__(
        self,
        program: DoLoop,
        load_store_elimination: bool = True,
        load_reuse: bool = True,
    ):
        self.program = program
        self.enable_lse = load_store_elimination
        self.enable_reuse = load_reuse
        self.loop = LoopBody(program.name)
        self._assigned = _assigned_scalars(program.body)
        self._env: Dict[str, Operand] = {}
        self._carries: Dict[str, Value] = {}
        self._aliases: Dict[int, Operand] = {}  # placeholder vid -> real operand
        self._cse: Dict[tuple, Value] = {}
        self._address_ivs: Dict[Tuple[str, int], Operand] = {}
        self._index_iv: Optional[Operand] = None
        self._mem_accesses: List[_MemAccess] = []
        self._fresh = 0
        # Load/store elimination bookkeeping (see _prescan_stores).
        self._store_placeholders: Dict[Tuple[str, int, int], Tuple[Value, int]] = {}
        self._reuse_leaders: Dict[Tuple[str, int, int], Tuple[Value, int]] = {}
        self._stored_arrays: set = set()
        self._gathered_arrays: set = set()
        # Early-exit support: a loop-carried "live" predicate gates every
        # side effect once any prior iteration's exit condition fired.
        self._has_exit = _has_early_exit(program.body)
        self._live: Optional[Operand] = None
        self._live_carry: Optional[Value] = None

    # ------------------------------------------------------------------
    def compile(self) -> LoopBody:
        program = self.program
        self._prescan_memory()
        for name in sorted(self._assigned):
            if name not in program.scalars:
                raise CompileError(
                    f"scalar {name!r} is assigned in the loop but has no initial value"
                )
            carry = self.loop.new_value(f"{name}.carry", DType.FLOAT)
            self._carries[name] = carry
            self._env[name] = Operand(carry, back=1)
        if self._has_exit:
            self._live_carry = self.loop.new_value("live.carry", DType.PRED)
            self._live = Operand(self._live_carry, back=1)
        self._gen_statements(program.body, guard=None)
        self._finish_scalars()
        self._finish_live()
        self._resolve_aliases()
        self._add_memory_deps()
        self.loop.eliminate_dead_code()
        self.loop.add_op(Opcode.BRTOP)
        self.loop.meta.update(
            {
                "start": program.start,
                "trip": program.trip,
                "arrays": dict(program.arrays),
                # The live bit enters the loop true; simulators read its
                # initial binding through the scalar environment.
                "scalars": (
                    {**program.scalars, "__live": 1.0}
                    if self._has_exit
                    else dict(program.scalars)
                ),
                "live_out": list(program.live_out),
                "has_conditional": _has_conditional(program.body),
                "has_early_exit": self._has_exit,
                "n_basic_blocks": _basic_blocks(program.body),
            }
        )
        return self.loop.finalize()

    # ------------------------------------------------------------------
    # Pre-scan: which loads can be eliminated or reused
    # ------------------------------------------------------------------
    def _prescan_memory(self) -> None:
        stores: List[_Store] = []
        loads: List[_Load] = []
        scalar_exprs: List[Expr] = []

        self._scan_stmts(self.program.body, False, stores, loads, scalar_exprs)

        if self.enable_lse:
            # An access class is (array, stride, offset mod stride):
            # classes of the same stride but different residues touch
            # provably disjoint elements.  A class is eliminable when it
            # has exactly one store, that store is unguarded, it computes
            # a compound (fresh) value not stored or scalar-assigned
            # elsewhere, every store to the array shares its stride, and
            # the array sees no indirect accesses.
            by_class: Dict[Tuple[str, int, int], List[Tuple[int, bool, Expr]]] = {}
            strides_by_array: Dict[str, set] = {}
            for array, stride, abs_offset, guarded, expr in stores:
                strides_by_array.setdefault(array, set()).add(stride)
                if stride is None:
                    continue
                key = (array, stride, abs_offset % stride)
                by_class.setdefault(key, []).append((abs_offset, guarded, expr))
            seen_exprs: List[Expr] = []
            for array, stride, abs_offset, guarded, expr in stores:
                if stride is None:
                    continue
                key = (array, stride, abs_offset % stride)
                eligible = (
                    len(by_class[key]) == 1
                    and not guarded
                    and isinstance(expr, (BinOp, Unary))
                    and expr not in seen_exprs
                    and expr not in scalar_exprs  # its value would need two origins
                    and array not in self._gathered_arrays
                    and strides_by_array[array] == {stride}
                )
                seen_exprs.append(expr)
                if eligible:
                    placeholder = self.loop.new_value(
                        f"{array}.stored", DType.FLOAT,
                        origin=ArrayElementOrigin(array, stride, abs_offset),
                    )
                    self._store_placeholders[key] = (placeholder, abs_offset)

        if self.enable_reuse:
            # Loads of array classes with no stores at all can reuse the
            # highest-offset unguarded load of the class across iterations.
            candidates: Dict[Tuple[str, int, int], List[int]] = {}
            for array, stride, abs_offset, guarded in loads:
                if (
                    stride is None
                    or guarded
                    or array in self._stored_arrays
                    or array in self._gathered_arrays
                ):
                    continue
                candidates.setdefault((array, stride, abs_offset % stride), []).append(
                    abs_offset
                )
            for (array, stride, residue), offsets in candidates.items():
                if len(set(offsets)) < 2:
                    continue
                leader_offset = max(offsets)
                placeholder = self.loop.new_value(
                    f"{array}.lead", DType.FLOAT,
                    origin=ArrayElementOrigin(array, stride, leader_offset),
                )
                self._reuse_leaders[(array, stride, residue)] = (placeholder, leader_offset)

    def _scan_stmts(
        self,
        stmts: Sequence[Stmt],
        guarded: bool,
        stores: List[_Store],
        loads: List[_Load],
        scalar_exprs: List[Expr],
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                self._scan_expr(stmt.expr, guarded, loads)
                target = stmt.target
                if isinstance(target, Scalar):
                    scalar_exprs.append(stmt.expr)
                if isinstance(target, ArrayRef):
                    abs_offset = target.stride * self.program.start + target.offset
                    stores.append((target.array, target.stride, abs_offset, guarded, stmt.expr))
                    self._stored_arrays.add(target.array)
                elif isinstance(target, Scatter):
                    self._scan_expr(target.index, guarded, loads)
                    stores.append((target.array, None, None, guarded, stmt.expr))
                    self._stored_arrays.add(target.array)
                    self._gathered_arrays.add(target.array)
            elif isinstance(stmt, If):
                self._scan_expr(stmt.cond, guarded, loads)
                self._scan_stmts(stmt.then, True, stores, loads, scalar_exprs)
                self._scan_stmts(stmt.orelse, True, stores, loads, scalar_exprs)
            elif isinstance(stmt, ExitIf):
                self._scan_expr(stmt.cond, guarded, loads)

    def _scan_expr(self, expr: Expr, guarded: bool, loads: List[_Load]) -> None:
        if isinstance(expr, ArrayRef):
            abs_offset = expr.stride * self.program.start + expr.offset
            loads.append((expr.array, expr.stride, abs_offset, guarded))
        elif isinstance(expr, Gather):
            self._gathered_arrays.add(expr.array)
            self._scan_expr(expr.index, guarded, loads)
        elif isinstance(expr, (BinOp, Compare)):
            self._scan_expr(expr.left, guarded, loads)
            self._scan_expr(expr.right, guarded, loads)
        elif isinstance(expr, Unary):
            self._scan_expr(expr.operand, guarded, loads)

    # ------------------------------------------------------------------
    # Expression generation
    # ------------------------------------------------------------------
    def _fresh_name(self, base: str) -> str:
        self._fresh += 1
        return f"{base}{self._fresh}"

    def _guard_key(self, guard: Optional[Operand]):
        return None if guard is None else (guard.value.vid, guard.back)

    def _emit(
        self,
        opcode: Opcode,
        operands: List[Operand],
        dtype: DType,
        guard: Optional[Operand],
        name: str = "t",
        **attrs,
    ) -> Operand:
        """Emit an op with local CSE; returns the result operand."""
        key = (
            opcode,
            tuple((o.value.vid, o.back) for o in operands),
            self._guard_key(guard),
            tuple(sorted(attrs.items())),
        )
        cached = self._cse.get(key)
        if cached is not None:
            return Operand(cached)
        dest = self.loop.new_value(self._fresh_name(name), dtype)
        self.loop.add_op(opcode, dest, operands, predicate=guard, **attrs)
        self._cse[key] = dest
        return Operand(dest)

    def _address_iv(self, array: str, stride: int) -> Operand:
        if stride < 1:
            raise CompileError(f"array strides must be positive, got {stride} on {array!r}")
        key = (array, stride)
        operand = self._address_ivs.get(key)
        if operand is None:
            base = stride * self.program.start
            value = self.loop.new_value(
                f"&{array}.{stride}", DType.ADDR,
                origin=AddressOrigin(array, stride, base),
            )
            step = self.loop.constant(stride, DType.ADDR)
            self.loop.add_op(Opcode.ADDR_ADD, value, [Operand(value, back=1), Operand(step)])
            operand = Operand(value)
            self._address_ivs[key] = operand
        return operand

    def _index_value(self) -> Operand:
        if self._index_iv is None:
            value = self.loop.new_value(
                "i", DType.INT, origin=AddressOrigin(None, 1, self.program.start)
            )
            one = self.loop.constant(1, DType.INT)
            self.loop.add_op(Opcode.ADD_I, value, [Operand(value, back=1), Operand(one)])
            self._index_iv = Operand(value)
        return self._index_iv

    def _record_access(self, op: Operation, array: str, is_store: bool,
                       stride: Optional[int], abs_offset: Optional[int]) -> None:
        self._mem_accesses.append(
            _MemAccess(op, array, is_store, stride, abs_offset, len(self._mem_accesses))
        )
        if is_store:
            self._invalidate_cached_loads(array)

    def _invalidate_cached_loads(self, array: str) -> None:
        """Drop load-CSE entries for ``array``: a load textually after a
        store to the array must re-read memory, not reuse an older load."""
        stale = [
            key
            for key in self._cse
            if key and key[0] is Opcode.LOAD and len(key) >= 4 and key[3] == array
        ]
        for key in stale:
            del self._cse[key]

    def _gen_load(self, ref: ArrayRef, guard: Optional[Operand]) -> Operand:
        abs_offset = ref.stride * self.program.start + ref.offset
        class_key = (ref.array, ref.stride, abs_offset % ref.stride)

        # Store -> load elimination: the value was stored delta iterations ago.
        placeholder_info = self._store_placeholders.get(class_key)
        if placeholder_info is not None and guard is None:
            placeholder, store_abs = placeholder_info
            delta, remainder = divmod(store_abs - abs_offset, ref.stride)
            if remainder == 0 and delta >= 1:
                return Operand(placeholder, back=delta)
            if remainder == 0 and delta == 0 and placeholder.vid in self._aliases:
                # Same-iteration forwarding: the store already executed
                # textually, so the load would read exactly the stored
                # value (important for unrolled recurrences, whose
                # cross-copy flow is same-iteration).
                return Operand(placeholder, back=0)
            # delta == 0 with the store textually later is an
            # anti-dependence: the load reads the *old* value and stays.

        # Load -> load reuse: this element was loaded delta iterations ago.
        leader_info = self._reuse_leaders.get(class_key)
        if leader_info is not None and guard is None:
            leader, leader_abs = leader_info
            delta, remainder = divmod(leader_abs - abs_offset, ref.stride)
            if remainder == 0 and delta >= 1:
                return Operand(leader, back=delta)
            if delta == 0 and remainder == 0:
                # This *is* the leader reference: emit the real load once.
                if leader.defop is None:
                    iv = self._address_iv(ref.array, ref.stride)
                    op = self.loop.add_op(
                        Opcode.LOAD, leader, [iv],
                        array=ref.array, stride=ref.stride,
                        disp=ref.offset, abs=abs_offset,
                    )
                    self._record_access(op, ref.array, False, ref.stride, abs_offset)
                return Operand(leader)

        iv = self._address_iv(ref.array, ref.stride)
        key = (Opcode.LOAD, (iv.value.vid, iv.back), self._guard_key(guard),
               ref.array, ref.stride, ref.offset)
        cached = self._cse.get(key)
        if cached is not None:
            return Operand(cached)
        dest = self.loop.new_value(
            self._fresh_name(f"{ref.array}_"), DType.FLOAT,
            origin=ArrayElementOrigin(ref.array, ref.stride, abs_offset),
        )
        op = self.loop.add_op(
            Opcode.LOAD, dest, [iv], predicate=guard,
            array=ref.array, stride=ref.stride, disp=ref.offset, abs=abs_offset,
        )
        self._record_access(op, ref.array, False, ref.stride, abs_offset)
        self._cse[key] = dest
        return Operand(dest)

    def _gen_gather_address(self, array: str, index: Expr, guard: Optional[Operand]) -> Operand:
        idx = self._gen_expr(index, guard)
        elsize = self.loop.constant(1, DType.ADDR)
        scaled = self._emit(Opcode.ADDR_MUL, [idx, Operand(elsize)], DType.ADDR, guard, name="ga")
        base = self.loop.invariant(f"&{array}", DType.ADDR)
        return self._emit(
            Opcode.ADDR_ADD, [Operand(base), scaled], DType.ADDR, guard, name="ga"
        )

    def _gen_expr(self, expr: Expr, guard: Optional[Operand]) -> Operand:
        if isinstance(expr, Const):
            return Operand(self.loop.constant(expr.value, DType.FLOAT))
        if isinstance(expr, Scalar):
            if expr.name in self._assigned:
                return self._env[expr.name]
            if expr.name not in self.program.scalars:
                raise CompileError(f"scalar {expr.name!r} has no initial value")
            return Operand(self.loop.invariant(expr.name, DType.FLOAT))
        if isinstance(expr, Index):
            return self._index_value()
        if isinstance(expr, ArrayRef):
            return self._gen_load(expr, guard)
        if isinstance(expr, Gather):
            address = self._gen_gather_address(expr.array, expr.index, guard)
            dest = self.loop.new_value(self._fresh_name(f"{expr.array}_g"), DType.FLOAT)
            op = self.loop.add_op(
                Opcode.LOAD, dest, [address], predicate=guard,
                array=expr.array, gather=True,
            )
            self._record_access(op, expr.array, False, None, None)
            return Operand(dest)
        if isinstance(expr, BinOp):
            left = self._gen_expr(expr.left, guard)
            right = self._gen_expr(expr.right, guard)
            int_typed = (
                _intish(left)
                and _intish(right)
                and (
                    left.value.dtype in (DType.INT, DType.ADDR)
                    or right.value.dtype in (DType.INT, DType.ADDR)
                )
            )
            table = _BINOP_INT if int_typed else _BINOP_FLOAT
            opcode = table.get(expr.op) or _BINOP_FLOAT[expr.op]
            dtype = DType.INT if int_typed else DType.FLOAT
            return self._emit(opcode, [left, right], dtype, guard)
        if isinstance(expr, Unary):
            operand = self._gen_expr(expr.operand, guard)
            return self._emit(_UNARY[expr.op], [operand], DType.FLOAT, guard)
        if isinstance(expr, Compare):
            left = self._gen_expr(expr.left, guard)
            right = self._gen_expr(expr.right, guard)
            return self._emit(_COMPARE[expr.op], [left, right], DType.PRED, guard, name="p")
        raise CompileError(f"cannot compile expression {expr!r}")

    # ------------------------------------------------------------------
    # Statement generation (with if-conversion)
    # ------------------------------------------------------------------
    def _gen_statements(self, stmts: Sequence[Stmt], guard: Optional[Operand]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Assign):
                self._gen_assign(stmt, guard)
            elif isinstance(stmt, If):
                self._gen_if(stmt, guard)
            elif isinstance(stmt, ExitIf):
                self._gen_exit(stmt, guard)
            else:
                raise CompileError(f"cannot compile statement {stmt!r}")

    def _effective_guard(self, guard: Optional[Operand]) -> Optional[Operand]:
        """Fold the early-exit live predicate into a side effect's guard.

        Computation stays speculative (the paper's schema executes
        post-exit iterations and squashes them); only stores and scalar
        merges consult the live bit.
        """
        if self._live is None:
            return guard
        if guard is None:
            return self._live
        return self._emit(Opcode.AND_B, [self._live, guard], DType.PRED, None, name="pl")

    def _gen_exit(self, stmt: ExitIf, guard: Optional[Operand]) -> None:
        condition = self._gen_expr(stmt.cond, guard)
        if guard is not None:
            condition = self._emit(
                Opcode.AND_B, [guard, condition], DType.PRED, None, name="px"
            )
        negated = self._emit(Opcode.NOT_B, [condition], DType.PRED, None, name="nx")
        self._live = self._emit(
            Opcode.AND_B, [self._live, negated], DType.PRED, None, name="lv"
        )

    def _gen_assign(self, stmt: Assign, guard: Optional[Operand]) -> None:
        target = stmt.target
        value = self._gen_expr(stmt.expr, guard)
        effective = self._effective_guard(guard)
        if isinstance(target, Scalar):
            if target.name not in self._assigned:
                raise CompileError(f"scalar {target.name!r} assigned but not tracked")
            if effective is not None:
                value = self._emit(
                    Opcode.SELECT, [effective, value, self._env[target.name]],
                    DType.FLOAT, None, name=f"{target.name}_m",
                )
            self._env[target.name] = value
            return
        if isinstance(target, ArrayRef):
            iv = self._address_iv(target.array, target.stride)
            abs_offset = target.stride * self.program.start + target.offset
            op = self.loop.add_op(
                Opcode.STORE, None, [iv, value], predicate=effective,
                array=target.array, stride=target.stride,
                disp=target.offset, abs=abs_offset,
            )
            self._record_access(op, target.array, True, target.stride, abs_offset)
            placeholder_info = self._store_placeholders.get(
                (target.array, target.stride, abs_offset % target.stride)
            )
            if placeholder_info is not None and guard is None:
                placeholder, store_abs = placeholder_info
                if store_abs == abs_offset and placeholder.vid not in self._aliases:
                    self._aliases[placeholder.vid] = value
                    if value.back == 0 and value.value.origin is None:
                        value.value.origin = ArrayElementOrigin(
                            target.array, target.stride, abs_offset
                        )
            return
        if isinstance(target, Scatter):
            address = self._gen_gather_address(target.array, target.index, guard)
            op = self.loop.add_op(
                Opcode.STORE, None, [address, value], predicate=effective,
                array=target.array, gather=True,
            )
            self._record_access(op, target.array, True, None, None)
            return
        raise CompileError(f"cannot assign to {target!r}")

    def _gen_if(self, stmt: If, guard: Optional[Operand]) -> None:
        cond = self._gen_expr(stmt.cond, guard)
        negated = self._emit(Opcode.NOT_B, [cond], DType.PRED, guard, name="np")
        if guard is None:
            then_guard, else_guard = cond, negated
        else:
            then_guard = self._emit(Opcode.AND_B, [guard, cond], DType.PRED, None, name="p")
            else_guard = self._emit(Opcode.AND_B, [guard, negated], DType.PRED, None, name="p")
        snapshot = dict(self._env)
        self._gen_statements(stmt.then, then_guard)
        then_env = self._env
        self._env = dict(snapshot)
        self._gen_statements(stmt.orelse, else_guard)
        else_env = self._env
        merged = dict(snapshot)
        # Sorted so the join selects are emitted in a fixed order; bare
        # set iteration made op numbering (and hence every downstream
        # schedule) vary with PYTHONHASHSEED from process to process.
        for name in sorted(self._assigned):
            then_val = then_env.get(name, snapshot.get(name))
            else_val = else_env.get(name, snapshot.get(name))
            if then_val == else_val:
                if then_val is not None:
                    merged[name] = then_val
                continue
            # Assigned in both arms: join with one more select.  Each
            # arm's value already falls back to the pre-if value when its
            # own guard is false, so either pick is safe under !guard.
            merged[name] = self._emit(
                Opcode.SELECT, [cond, then_val, else_val], DType.FLOAT, None,
                name=f"{name}_j",
            )
        self._env = merged

    # ------------------------------------------------------------------
    # Post passes
    # ------------------------------------------------------------------
    def _finish_scalars(self) -> None:
        for name, carry in self._carries.items():
            final = self._env[name]
            self._aliases[carry.vid] = final
            if final.back == 0 and final.value.is_variant and final.value.origin is None:
                final.value.origin = ScalarOrigin(name)
            if name in self.program.live_out:
                self.loop.live_out[name] = final.value

    def _finish_live(self) -> None:
        if not self._has_exit:
            return
        final = self._live
        self._aliases[self._live_carry.vid] = final
        if final.back == 0 and final.value.is_variant and final.value.origin is None:
            final.value.origin = ScalarOrigin("__live")

    def _resolve_aliases(self) -> None:
        """Rewrite operands referencing placeholders to the real values.

        Alias chains (a carry resolving to a stored placeholder, say) are
        followed to a fixed point; the placeholder values themselves are
        then dropped from the loop.
        """

        def resolve(operand: Operand) -> Operand:
            back = operand.back
            value = operand.value
            seen = 0
            while value.vid in self._aliases and value.defop is None:
                replacement = self._aliases[value.vid]
                if not replacement.value.is_variant:
                    return Operand(replacement.value, 0)
                back += replacement.back
                value = replacement.value
                seen += 1
                if seen > len(self._aliases) + 1:
                    raise CompileError("circular load/store elimination aliasing")
            return Operand(value, back)

        for op in self.loop.ops:
            op.operands = [resolve(o) for o in op.operands]
            if op.predicate is not None:
                op.predicate = resolve(op.predicate)
        for name, value in list(self.loop.live_out.items()):
            resolved = resolve(Operand(value))
            self.loop.live_out[name] = resolved.value
        placeholder_vids = {
            vid for vid in self._aliases
            if self.loop.values[vid].defop is None
        }
        # Unresolved placeholders (an eliminable store that never executed
        # unguarded) would leave dangling uses; that cannot happen because
        # aliases are registered at the store site found by the pre-scan.
        self.loop.values = [v for v in self.loop.values if v.vid not in placeholder_vids]
        for vid, value in enumerate(self.loop.values):
            value.vid = vid

    def _add_memory_deps(self) -> None:
        accesses = self._mem_accesses
        for i, first in enumerate(accesses):
            for second in accesses[i + 1 :]:
                if first.array != second.array:
                    continue
                if not (first.is_store or second.is_store):
                    continue
                self._add_pair_dep(first, second)

    def _add_pair_dep(self, first: _MemAccess, second: _MemAccess) -> None:
        """Dependence arcs between two may-conflicting accesses, with
        ``first`` textually earlier."""
        if (
            first.stride is not None
            and second.stride == first.stride
            and first.abs_offset is not None
            and second.abs_offset is not None
        ):
            delta, remainder = divmod(first.abs_offset - second.abs_offset, first.stride)
            if remainder != 0:
                return  # provably disjoint elements
            if delta >= 0:
                self.loop.add_mem_dep(first.op, second.op, omega=delta)
            else:
                self.loop.add_mem_dep(second.op, first.op, omega=-delta)
            return
        # Incommensurate strides or indirect accesses: conservative
        # ordering in both directions (omega 0 forward, 1 backward
        # covers every possible distance).
        self.loop.add_mem_dep(first.op, second.op, omega=0)
        self.loop.add_mem_dep(second.op, first.op, omega=1)


def compile_loop(
    program: DoLoop,
    load_store_elimination: bool = True,
    load_reuse: bool = True,
) -> LoopBody:
    """Compile a DoLoop program into a finalized, schedulable LoopBody."""
    return LoopCompiler(
        program,
        load_store_elimination=load_store_elimination,
        load_reuse=load_reuse,
    ).compile()


# ----------------------------------------------------------------------
# Static program facts
# ----------------------------------------------------------------------
def _assigned_scalars(stmts: Sequence[Stmt]) -> set:
    names = set()
    for stmt in stmts:
        if isinstance(stmt, Assign) and isinstance(stmt.target, Scalar):
            names.add(stmt.target.name)
        elif isinstance(stmt, If):
            names |= _assigned_scalars(stmt.then)
            names |= _assigned_scalars(stmt.orelse)
    return names


def _has_early_exit(stmts: Sequence[Stmt]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ExitIf):
            return True
        if isinstance(stmt, If) and (
            _has_early_exit(stmt.then) or _has_early_exit(stmt.orelse)
        ):
            return True
    return False


def _has_conditional(stmts: Sequence[Stmt]) -> bool:
    # Ifs only nest under Ifs, so a top-level scan is complete.
    return any(isinstance(stmt, If) for stmt in stmts)


def _basic_blocks(stmts: Sequence[Stmt]) -> int:
    """Basic-block count of the un-if-converted body (Table 2 metric)."""
    blocks = 1
    for stmt in stmts:
        if isinstance(stmt, If):
            blocks += _basic_blocks(stmt.then) + _basic_blocks(stmt.orelse) + 1
    return blocks
