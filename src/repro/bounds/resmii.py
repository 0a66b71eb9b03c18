"""Resource-constrained lower bound on II (paper §3.1).

If one iteration needs N busy-cycles of a resource of which the machine
supplies R instances, then ``II >= ceil(N / R)``; ResMII is the maximum
such ratio over all resources.  Non-pipelined units (the divider)
contribute their full latency per operation.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.ir.loop import LoopBody
from repro.machine.machine import Machine


def unit_requirements(loop: LoopBody, machine: Machine) -> Dict[int, int]:
    """Busy cycles required per iteration, keyed by unit-class index."""
    needs: Dict[int, int] = {}
    for op in loop.ops:
        class_index = machine.unit_class_index(op.opcode)
        if class_index is None:
            continue
        needs[class_index] = needs.get(class_index, 0) + machine.busy_cycles(op)
    return needs


def resmii(loop: LoopBody, machine: Machine) -> int:
    """The resource-constrained minimum initiation interval (>= 1)."""
    bound = 1
    for class_index, busy in unit_requirements(loop, machine).items():
        count = machine.unit_classes[class_index].count
        bound = max(bound, math.ceil(busy / count))
    return bound
