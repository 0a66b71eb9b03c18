"""Shared machine state and arithmetic semantics for the simulators.

Both the sequential reference interpreter and the pipelined executors
use *exactly* these helpers, so a correctly scheduled loop produces
bit-identical results on both (same operations, same evaluation order
within an expression, same totalization of division/sqrt).
"""

from __future__ import annotations

import dataclasses
import functools
import math
import zlib
from typing import Dict, List, Optional, Tuple

from repro.frontend.ast import DoLoop


@dataclasses.dataclass
class MachineState:
    """Memory image and scalar environment for one simulation run."""

    arrays: Dict[str, List[float]]
    scalars: Dict[str, float]

    def copy(self) -> "MachineState":
        return MachineState(
            arrays={name: list(cells) for name, cells in self.arrays.items()},
            scalars=dict(self.scalars),
        )


def seeded_value(array: str, index: int, seed: int = 0) -> float:
    """Deterministic pseudo-random array contents in [0.5, 1.5).

    Values stay near 1.0 so products/divisions neither explode nor
    vanish over a simulated loop, and never hit division by zero.
    """
    key = zlib.crc32(f"{array}:{index}:{seed}".encode())
    return 0.5 + (key % 10_000) / 10_000.0


#: Seeded array images ``_seeded_cells`` keeps.  No paper-corpus loop
#: declares more than 9 arrays, so the states built for one loop always
#: reuse its own images.
_SEEDED_IMAGES = 32


@functools.lru_cache(maxsize=_SEEDED_IMAGES)
def _seeded_cells(name: str, size: int, seed: int) -> Tuple[float, ...]:
    """``seeded_value(name, i, seed)`` for each i below ``size``: the crc
    of ``"name:"`` is taken once and continued over the bytes of
    ``f"{i}:{seed}"``."""
    prefix = zlib.crc32(f"{name}:".encode())
    suffix = f":{seed}".encode()
    return tuple(
        0.5 + (zlib.crc32(b"%d%b" % (i, suffix), prefix) % 10_000) / 10_000.0
        for i in range(size)
    )


def initial_state(program: DoLoop, seed: int = 0,
                  array_init: Optional[Dict[str, List[float]]] = None) -> MachineState:
    """Build the pre-loop machine state for a DoLoop program.

    Arrays are sized to cover both the declared size and every element an
    affine reference can touch, then filled from ``array_init`` when it
    names them (repeating its values; needed e.g. for index arrays driving
    gathers) and otherwise with ``seeded_value``'s numbers.

    Seeded contents come from a memo of immutable images keyed by
    (array name, size, seed) that keeps the 32 most recently used
    images: each is a tuple of floats, 32 bytes a cell, so the memo
    holds at most 1 KiB per cell of the largest array simulated (~0.3 MB
    on the paper corpus, whose largest array has 300 cells).  Every call
    copies each image into a new list, so states built from one image
    share only immutable floats and a run writing one never changes
    another.  Raises ValueError when ``array_init`` names an array the
    program does not declare or gives one no values.
    """
    array_init = array_init or {}
    for name, given in array_init.items():
        if name not in program.arrays:
            raise ValueError(
                f"array_init names array {name!r}, which {program.name} does not declare"
            )
        if len(given) == 0:
            raise ValueError(f"array_init gives array {name!r} no values")
    extents = program.max_elements()
    arrays: Dict[str, List[float]] = {}
    for name, declared in program.arrays.items():
        size = max(int(declared), extents.get(name, 0) + 2)
        given = array_init.get(name)
        if given is not None:
            arrays[name] = [float(given[i % len(given)]) for i in range(size)]
        else:
            arrays[name] = list(_seeded_cells(name, size, seed))
    return MachineState(arrays=arrays, scalars=dict(program.scalars))


def state_mismatches(
    program: DoLoop, expected: MachineState, actual: MachineState
) -> List[str]:
    """Every array cell and live-out scalar of ``program`` where
    ``actual`` differs from ``expected``, one line per location.

    The comparison is exact, with NaN equal only to NaN: a correct
    pipelined run performs the same operations in the same order as the
    sequential interpreter, so any difference at all is a bug.
    """

    def same(a, b) -> bool:
        return a == b or (a != a and b != b)

    problems = []
    for name in program.arrays:
        want, got = expected.arrays[name], actual.arrays[name]
        if len(want) != len(got):
            problems.append(f"{name} has {len(got)} cells, want {len(want)}")
        problems += [
            f"{name}[{cell}] = {b!r}, want {a!r}"
            for cell, (a, b) in enumerate(zip(want, got))
            if not same(a, b)
        ]
    for name in program.live_out:
        a, b = expected.scalars.get(name), actual.scalars.get(name)
        if not same(a, b):
            problems.append(f"{name} = {b!r}, want {a!r}")
    return problems


# ----------------------------------------------------------------------
# Totalized arithmetic (identical in both simulators)
# ----------------------------------------------------------------------
def fdiv(numerator: float, denominator: float) -> float:
    """Division totalized at 0 (a squashed divide never traps)."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def fsqrt(operand: float) -> float:
    """Square root totalized over negatives via |x|."""
    return math.sqrt(abs(operand))


def clamp_element(cells: List[float], index: float) -> int:
    """Round and clamp an indirect index into the array bounds."""
    position = int(round(index))
    if position < 0:
        return 0
    if position >= len(cells):
        return len(cells) - 1
    return position
