"""Machine description: unit lookup, latencies, and unit binding.

The paper's compiler "assigns operations to functional units before
scheduling commences, thereby restricting an operation to one issue slot
per cycle" (§4.3).  :meth:`Machine.bind_units` reproduces that prepass:
each real operation is bound to one unit *instance* (a
``(unit_class_index, instance_index)`` pair) with simple load balancing
inside the class.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir.loop import LoopBody
from repro.ir.operations import Opcode, Operation
from repro.machine.units import UnitClass

#: A bound unit instance: (index of the unit class, instance within it).
UnitInstance = Tuple[int, int]


class Machine:
    """A VLIW machine built from a tuple of :class:`UnitClass` es.

    ``wire`` records where a registry machine came from: the
    ``{"name": family, **params}`` object that re-requests it over the
    wire protocol, or None for a hand-built machine.  It is provenance
    only; the cache key reads the name and unit classes.
    """

    def __init__(
        self,
        name: str,
        unit_classes: Sequence[UnitClass],
        wire: Optional[dict] = None,
    ):
        self.name = name
        self.wire = wire
        self.unit_classes: Tuple[UnitClass, ...] = tuple(unit_classes)
        self._class_of_opcode: Dict[Opcode, int] = {}
        self._latency_of_opcode: Dict[Opcode, int] = {}
        self._busy_of_opcode: Dict[Opcode, int] = {}
        for index, unit_class in enumerate(self.unit_classes):
            for opcode in unit_class.opcodes():
                if opcode in self._class_of_opcode:
                    raise ValueError(f"{opcode} claimed by two unit classes")
                self._class_of_opcode[opcode] = index
                self._latency_of_opcode[opcode] = unit_class.latency(opcode)
                self._busy_of_opcode[opcode] = unit_class.busy_cycles(opcode)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def unit_class_index(self, opcode: Opcode) -> Optional[int]:
        """Unit class executing ``opcode``; None for pseudo ops."""
        if opcode in (Opcode.START, Opcode.STOP):
            return None
        try:
            return self._class_of_opcode[opcode]
        except KeyError:
            raise KeyError(f"{self.name} has no unit for {opcode}") from None

    def unit_class(self, opcode: Opcode) -> Optional[UnitClass]:
        index = self.unit_class_index(opcode)
        return None if index is None else self.unit_classes[index]

    def latency(self, op: Operation) -> int:
        """Latency of ``op``; pseudo ops take 0 cycles."""
        # Flat per-opcode table: the UnitClass scan is a linear search
        # and this sits on the scheduler's placement hot path.
        latency = self._latency_of_opcode.get(op.opcode)
        if latency is None:
            if op.opcode in (Opcode.START, Opcode.STOP):
                return 0
            self.unit_class(op.opcode)  # raises the canonical KeyError
            return 0
        return latency

    def busy_cycles(self, op: Operation) -> int:
        """Cycles ``op`` occupies its unit instance (1 if pipelined)."""
        busy = self._busy_of_opcode.get(op.opcode)
        if busy is None:
            if op.opcode in (Opcode.START, Opcode.STOP):
                return 0
            self.unit_class(op.opcode)  # raises the canonical KeyError
            return 0
        return busy

    # ------------------------------------------------------------------
    # Unit binding (prepass)
    # ------------------------------------------------------------------
    def bind_units(self, loop: LoopBody) -> Dict[int, UnitInstance]:
        """Bind every real op to a unit instance, balancing busy cycles.

        Returns a map ``oid -> (unit_class_index, instance_index)``.
        Within each class, ops are assigned to the currently
        least-loaded instance (ties to the lowest index), which
        reproduces a sensible prepass binding and keeps ResMII
        achievable whenever the class's aggregate capacity allows it.
        """
        binding: Dict[int, UnitInstance] = {}
        loads: Dict[int, List[int]] = {
            index: [0] * unit_class.count
            for index, unit_class in enumerate(self.unit_classes)
        }
        for op in loop.ops:
            class_index = self.unit_class_index(op.opcode)
            if class_index is None:
                continue
            instance_loads = loads[class_index]
            instance = min(range(len(instance_loads)), key=instance_loads.__getitem__)
            instance_loads[instance] += self.busy_cycles(op)
            binding[op.oid] = (class_index, instance)
        return binding


def cydra5(load_latency: int = 13) -> Machine:
    """The paper's hypothetical Cydra-5-like VLIW target (Table 1).

    Resolved through the machine registry (`repro.machine.registry`),
    which builds the same name and unit classes the old hardwired
    constructor produced, so cache keys are unchanged.
    """
    from repro.machine.registry import build_machine

    return build_machine("cydra5", load_latency=load_latency)
