"""Data-dependence graph (DDG) over a finalized loop body.

Each arc ``(src, dst, latency, omega)`` constrains any feasible modulo
schedule with initiation interval II by::

    time(dst) >= time(src) + latency - omega * II

where ``omega`` is the minimum number of iterations separating the two
operations (the dependence *distance*; paper §3.1).  Flow arcs also
remember the value they carry so lifetime heuristics (§5.2) can reason
about which lifetimes an operation's placement stretches.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import List, Optional

from repro.ir.loop import LoopBody
from repro.ir.operations import Operation
from repro.ir.values import Value


class ArcKind(enum.Enum):
    FLOW = "flow"  # register flow dependence (def -> use)
    MEM = "mem"  # memory-ordering dependence
    SEQ = "seq"  # Start/Stop sequencing arcs

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArcKind.{self.name}"


@dataclasses.dataclass(frozen=True, slots=True)
class Arc:
    """A dependence arc between two operations (by oid)."""

    src: int
    dst: int
    latency: int
    omega: int
    kind: ArcKind
    value: Optional[Value] = None

    def __repr__(self) -> str:
        tag = f" {self.value.name}" if self.value is not None else ""
        return f"Arc({self.src}->{self.dst}, lat={self.latency}, omega={self.omega}, {self.kind.value}{tag})"


class DDG:
    """Dependence graph with adjacency indexes.

    Build with :func:`build_ddg`; ``n`` equals the loop body's operation
    count (including Start/Stop), and oids index directly into the
    adjacency lists.  The arc list is immutable after construction.
    """

    def __init__(self, loop: LoopBody, arcs: List[Arc], machine: "Machine"):  # noqa: F821
        self.loop = loop
        self.machine = machine
        self.n = loop.n_ops
        self.arcs = arcs
        self.succs: List[List[Arc]] = [[] for _ in range(self.n)]
        self.preds: List[List[Arc]] = [[] for _ in range(self.n)]
        for arc in arcs:
            self.succs[arc.src].append(arc)
            self.preds[arc.dst].append(arc)
        #: This graph's placement-independent analysis (bounds, unit
        #: binding, per-II MinDist/MinLT): the one cache a DDG carries,
        #: created on first use by repro.bounds.analysis.LoopAnalysis.of.
        self.analysis = None

    def flow_outputs(self, op: Operation) -> List[Arc]:
        """Flow arcs leaving ``op`` (uses of the value it defines)."""
        return [arc for arc in self.succs[op.oid] if arc.kind is ArcKind.FLOW]

    def __repr__(self) -> str:
        return f"DDG({self.loop.name!r}, {self.n} ops, {len(self.arcs)} arcs)"


def build_ddg(loop: LoopBody, machine: "Machine") -> DDG:  # noqa: F821
    """Construct the DDG for a finalized loop body on a given machine.

    Arcs:
      * FLOW: from each variant operand's defining op to the user, with
        ``latency = machine latency of the def`` and ``omega = operand.back``.
      * MEM: the front end's memory-ordering deps.
      * SEQ: ``Start -> op`` (latency 0) and ``op -> Stop`` (latency =
        op latency) for every real op, so Stop's issue time is the
        schedule length.
    """
    if not loop.finalized:
        raise ValueError("loop body must be finalized before building a DDG")
    arcs: List[Arc] = []
    start, stop = loop.start, loop.stop
    for op in loop.real_ops:
        arcs.append(Arc(start.oid, op.oid, 0, 0, ArcKind.SEQ))
        arcs.append(Arc(op.oid, stop.oid, machine.latency(op), 0, ArcKind.SEQ))
        for operand in op.inputs():
            value = operand.value
            if not value.is_variant:
                continue
            defop = value.defop
            if defop is None:
                raise ValueError(f"variant {value} has no defining op")
            arcs.append(
                Arc(
                    defop.oid,
                    op.oid,
                    machine.latency(defop),
                    operand.back,
                    ArcKind.FLOW,
                    value=value,
                )
            )
    for dep in loop.mem_deps:
        arcs.append(Arc(dep.src, dep.dst, dep.latency, dep.omega, ArcKind.MEM))
    return DDG(loop, arcs, machine)
