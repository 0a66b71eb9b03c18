"""Declarative machine descriptions and the named-target registry.

The paper evaluates against one hypothetical Cydra-5-like VLIW
(Table 1).  This module generalizes that single hardwired constructor
into a *machine zoo*: every target is a :class:`MachineFamily` — a name,
a set of integer parameters with defaults and ranges, and a declarative
unit-class builder — registered under a stable name.  Resolving a
family with concrete parameters yields the runtime
:class:`~repro.machine.machine.Machine`: its unit classes, plus a
``wire`` attribute holding the ``{"name": family, **params}`` object
that re-requests it.

Three invariants matter:

- **Digest stability.**  A machine's cache identity is
  :func:`repro.service.keys.canonical_machine`, one walk of its name and
  unit classes, so a registry machine and a hand-built one with the
  same name and unit classes key identically, and the ``cydra5``
  default keys as it did before the registry existed.
- **One namespace.**  The CLI (``--machine NAME[:k=v,...]`` through
  :func:`machine_from_cli`), the wire protocol
  (``{"machine": {"name": ..., param: ...}}``) and the bench zoo all
  resolve through :func:`get_family`, so registering a family here
  makes it immediately schedulable, servable and benchable.
- **Strict parameters.**  Unknown names and out-of-range parameters
  raise typed errors (:class:`UnknownMachineError`,
  :class:`MachineParamError`) whose messages list what *is* known, so
  every layer can surface them verbatim.

Registered targets:

``cydra5``
    The paper's Table 1 machine, parameterized by load latency.
``vliw-wide``
    An ``issue``-times wider clone of cydra5 (every unit class
    duplicated), probing schedules when resources stop binding.
``clustered``
    A clustered-register-file variant: integer and float ALU work live
    on separate clusters and cross-cluster results pay ``xfer_latency``
    extra cycles, in the style of multicluster VLIWs.
``simd``
    A SIMD-pipeline target after Arslan et al.: ``lanes`` deeply
    pipelined vector units whose latencies scale with pipeline
    ``depth``.
``gpu``
    An occupancy-constrained GPU-like target after Chen: ``occupancy``
    scales how many operations the SM-style core can keep in flight per
    cycle, against a long default memory latency.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Tuple

from repro.ir.operations import Opcode
from repro.machine.machine import Machine
from repro.machine.units import UnitClass, table1_units


class MachineError(ValueError):
    """Any machine-registry failure a caller may want to surface."""


class UnknownMachineError(MachineError):
    """A machine name no registered family answers to."""


class MachineParamError(MachineError):
    """A parameter a family rejects (unknown, wrong type, out of range)."""


# ----------------------------------------------------------------------
# Families: parameters + declarative builders
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class MachineParam:
    """One integer knob of a family, with its default and legal range."""

    name: str
    default: int
    minimum: int
    maximum: int

    def validate(self, value: object) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise MachineParamError(f"{self.name} must be an integer")
        if not self.minimum <= value <= self.maximum:
            raise MachineParamError(
                f"{self.name} must be in {self.minimum}..{self.maximum}"
            )
        return value


@dataclasses.dataclass(frozen=True)
class MachineFamily:
    """A named, parameterized machine description in the registry."""

    name: str
    description: str
    params: Tuple[MachineParam, ...]
    units_builder: Callable[..., Tuple[UnitClass, ...]]
    name_builder: Callable[..., str]

    def param_names(self) -> Tuple[str, ...]:
        return tuple(param.name for param in self.params)

    def resolve_params(self, overrides: Dict[str, object]) -> Dict[str, int]:
        """Fill defaults, reject unknowns, range-check everything."""
        known = {param.name: param for param in self.params}
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            raise MachineParamError(
                f"unknown parameter(s) {', '.join(unknown)} for machine "
                f"{self.name!r}; known: {', '.join(known) or '(none)'}"
            )
        resolved: Dict[str, int] = {}
        for param in self.params:
            value = overrides.get(param.name, param.default)
            resolved[param.name] = param.validate(value)
        return resolved

    def build(self, **overrides) -> Machine:
        """The Machine these parameters describe; its ``wire`` is the
        ``{"name": family, **params}`` object that re-requests it."""
        params = self.resolve_params(overrides)
        return Machine(
            self.name_builder(**params),
            self.units_builder(**params),
            wire={"name": self.name, **dict(sorted(params.items()))},
        )


# ----------------------------------------------------------------------
# Registered target definitions
# ----------------------------------------------------------------------
_INT_ALU_OPS = (
    Opcode.ADD_I,
    Opcode.SUB_I,
    Opcode.AND_B,
    Opcode.OR_B,
    Opcode.XOR_B,
    Opcode.NOT_B,
    Opcode.SELECT,
    Opcode.CMP_LT,
    Opcode.CMP_LE,
    Opcode.CMP_GT,
    Opcode.CMP_GE,
    Opcode.CMP_EQ,
    Opcode.CMP_NE,
)

_FLOAT_ALU_OPS = (
    Opcode.ADD_F,
    Opcode.SUB_F,
    Opcode.ABS_F,
    Opcode.NEG_F,
    Opcode.MIN_F,
    Opcode.MAX_F,
)

_ADD_CLASS_OPS = _INT_ALU_OPS + _FLOAT_ALU_OPS


def _lat(opcodes, latency: int) -> Tuple[Tuple[Opcode, int], ...]:
    return tuple((opcode, latency) for opcode in opcodes)


def _vliw_wide_units(load_latency: int, issue: int) -> Tuple[UnitClass, ...]:
    """cydra5 with every unit class ``issue`` times as many instances."""
    return tuple(
        dataclasses.replace(unit_class, count=unit_class.count * issue)
        for unit_class in table1_units(load_latency)
    )


def _clustered_units(load_latency: int, xfer_latency: int) -> Tuple[UnitClass, ...]:
    """Two clusters with partitioned register files.

    Integer/logical/predicate work lives on cluster 0, float work on
    cluster 1; a float consumer of a cluster-0 producer (and vice
    versa) pays ``xfer_latency`` extra cycles, modeled by folding the
    transfer into the cluster-1 latencies.
    """
    x = xfer_latency
    return (
        UnitClass(
            name="Memory Port",
            count=2,
            pipelined=True,
            op_latencies=((Opcode.LOAD, load_latency), (Opcode.STORE, 1)),
        ),
        UnitClass(
            name="Address ALU",
            count=2,
            pipelined=True,
            op_latencies=(
                (Opcode.ADDR_ADD, 1),
                (Opcode.ADDR_SUB, 1),
                (Opcode.ADDR_MUL, 1),
            ),
        ),
        UnitClass(
            name="Cluster-0 Integer ALU",
            count=1,
            pipelined=True,
            op_latencies=_lat(_INT_ALU_OPS, 1),
        ),
        UnitClass(
            name="Cluster-1 Float ALU",
            count=1,
            pipelined=True,
            op_latencies=_lat(_FLOAT_ALU_OPS, 1 + x),
        ),
        UnitClass(
            name="Cluster-1 Multiplier",
            count=1,
            pipelined=True,
            op_latencies=((Opcode.MUL_I, 2 + x), (Opcode.MUL_F, 2 + x)),
        ),
        UnitClass(
            name="Cluster-1 Divider",
            count=1,
            pipelined=False,
            op_latencies=(
                (Opcode.DIV_I, 17 + x),
                (Opcode.DIV_F, 17 + x),
                (Opcode.MOD_I, 17 + x),
                (Opcode.SQRT_F, 21 + x),
            ),
        ),
        UnitClass(
            name="Branch Unit",
            count=1,
            pipelined=True,
            op_latencies=((Opcode.BRTOP, 2),),
        ),
    )


def _simd_units(depth: int, lanes: int, load_latency: int) -> Tuple[UnitClass, ...]:
    """Deeply pipelined SIMD lanes (Arslan et al.-style pipelines).

    ``depth`` scales every arithmetic latency (the pipeline is deeper
    but stays fully pipelined, so ResMII is untouched while RecMII and
    lifetimes stretch); ``lanes`` scales vector-unit counts.
    """
    d = depth
    return (
        UnitClass(
            name="Vector Memory Port",
            count=1,
            pipelined=True,
            op_latencies=((Opcode.LOAD, load_latency), (Opcode.STORE, d)),
        ),
        UnitClass(
            name="Address ALU",
            count=2,
            pipelined=True,
            op_latencies=(
                (Opcode.ADDR_ADD, 1),
                (Opcode.ADDR_SUB, 1),
                (Opcode.ADDR_MUL, 1),
            ),
        ),
        UnitClass(
            name="Vector ALU",
            count=lanes,
            pipelined=True,
            op_latencies=_lat(_ADD_CLASS_OPS, d),
        ),
        UnitClass(
            name="Vector Multiplier",
            count=lanes,
            pipelined=True,
            op_latencies=((Opcode.MUL_I, 2 * d), (Opcode.MUL_F, 2 * d)),
        ),
        UnitClass(
            name="Vector Divider",
            count=1,
            pipelined=False,
            op_latencies=(
                (Opcode.DIV_I, 8 * d),
                (Opcode.DIV_F, 8 * d),
                (Opcode.MOD_I, 8 * d),
                (Opcode.SQRT_F, 10 * d),
            ),
        ),
        UnitClass(
            name="Branch Unit",
            count=1,
            pipelined=True,
            op_latencies=((Opcode.BRTOP, 2),),
        ),
    )


def _gpu_units(occupancy: int, load_latency: int) -> Tuple[UnitClass, ...]:
    """Occupancy-constrained GPU-like SM (Chen-style).

    ``occupancy`` models how many warps the core keeps resident: it
    scales the operations the SM can issue per cycle (unit counts), so
    low occupancy makes the long memory latency visible to the
    scheduler as resource pressure instead of hidden parallelism.
    """
    return (
        UnitClass(
            name="Load/Store Unit",
            count=max(1, occupancy // 2),
            pipelined=True,
            op_latencies=((Opcode.LOAD, load_latency), (Opcode.STORE, 2)),
        ),
        UnitClass(
            name="Address ALU",
            count=max(1, occupancy // 2),
            pipelined=True,
            op_latencies=(
                (Opcode.ADDR_ADD, 1),
                (Opcode.ADDR_SUB, 1),
                (Opcode.ADDR_MUL, 1),
            ),
        ),
        UnitClass(
            name="CUDA Core",
            count=occupancy,
            pipelined=True,
            op_latencies=_lat(_ADD_CLASS_OPS, 4),
        ),
        UnitClass(
            name="FMA Unit",
            count=max(1, occupancy // 2),
            pipelined=True,
            op_latencies=((Opcode.MUL_I, 4), (Opcode.MUL_F, 4)),
        ),
        UnitClass(
            name="SFU",
            count=1,
            pipelined=False,
            op_latencies=(
                (Opcode.DIV_I, 32),
                (Opcode.DIV_F, 32),
                (Opcode.MOD_I, 32),
                (Opcode.SQRT_F, 32),
            ),
        ),
        UnitClass(
            name="Branch Unit",
            count=1,
            pipelined=True,
            op_latencies=((Opcode.BRTOP, 2),),
        ),
    )


_LOAD_LATENCY = MachineParam("load_latency", default=13, minimum=1, maximum=1024)

_FAMILIES: "Dict[str, MachineFamily]" = {}


def register_family(family: MachineFamily) -> MachineFamily:
    if family.name in _FAMILIES:
        raise ValueError(f"machine family {family.name!r} already registered")
    _FAMILIES[family.name] = family
    return family


register_family(
    MachineFamily(
        name="cydra5",
        description="the paper's Cydra-5-like VLIW (Table 1)",
        params=(_LOAD_LATENCY,),
        units_builder=lambda load_latency: table1_units(load_latency),
        name_builder=lambda load_latency: f"cydra5-load{load_latency}",
    )
)

register_family(
    MachineFamily(
        name="vliw-wide",
        description="an issue-times wider cydra5 clone (2x by default)",
        params=(
            _LOAD_LATENCY,
            MachineParam("issue", default=2, minimum=1, maximum=8),
        ),
        units_builder=_vliw_wide_units,
        name_builder=lambda load_latency, issue: (
            f"vliw-wide-x{issue}-load{load_latency}"
        ),
    )
)

register_family(
    MachineFamily(
        name="clustered",
        description="two-cluster VLIW; cross-cluster results pay "
        "xfer_latency extra cycles",
        params=(
            _LOAD_LATENCY,
            MachineParam("xfer_latency", default=1, minimum=0, maximum=64),
        ),
        units_builder=_clustered_units,
        name_builder=lambda load_latency, xfer_latency: (
            f"clustered-x{xfer_latency}-load{load_latency}"
        ),
    )
)

register_family(
    MachineFamily(
        name="simd",
        description="deeply pipelined SIMD lanes (Arslan et al.); depth "
        "scales latencies, lanes scales vector-unit counts",
        params=(
            MachineParam("depth", default=2, minimum=1, maximum=8),
            MachineParam("lanes", default=2, minimum=1, maximum=16),
            MachineParam("load_latency", default=12, minimum=1, maximum=1024),
        ),
        units_builder=_simd_units,
        name_builder=lambda depth, lanes, load_latency: (
            f"simd-d{depth}-l{lanes}-load{load_latency}"
        ),
    )
)

register_family(
    MachineFamily(
        name="gpu",
        description="occupancy-constrained GPU-like SM (Chen); occupancy "
        "scales issue width against a long memory latency",
        params=(
            MachineParam("occupancy", default=4, minimum=1, maximum=32),
            MachineParam("load_latency", default=64, minimum=1, maximum=1024),
        ),
        units_builder=_gpu_units,
        name_builder=lambda occupancy, load_latency: (
            f"gpu-o{occupancy}-load{load_latency}"
        ),
    )
)


# ----------------------------------------------------------------------
# Lookup + resolution surface
# ----------------------------------------------------------------------
def machine_names() -> Tuple[str, ...]:
    """Every registered family name, in registration order."""
    return tuple(_FAMILIES)


def families() -> Tuple[MachineFamily, ...]:
    """Every registered family, in registration order."""
    return tuple(_FAMILIES.values())


def get_family(name: str) -> MachineFamily:
    try:
        return _FAMILIES[name]
    except KeyError:
        raise UnknownMachineError(
            f"unknown machine {name!r}; known: {', '.join(_FAMILIES)}"
        ) from None


def build_machine(name: str, **params) -> Machine:
    return get_family(name).build(**params)


def default_machines() -> List[Machine]:
    """One default-parameter Machine per registered family."""
    return [family.build() for family in _FAMILIES.values()]


def parse_machine_arg(text: str) -> Tuple[str, Dict[str, int]]:
    """Split a CLI ``NAME[:k=v,...]`` argument into name + overrides.

    The name is validated against the registry (so the error message
    lists what exists); parameter *names* are validated later by
    :meth:`MachineFamily.resolve_params` so unknown-parameter errors
    name the family's actual knobs.
    """
    name, _, param_text = text.partition(":")
    name = name.strip()
    get_family(name)  # raises UnknownMachineError with the known list
    overrides: Dict[str, int] = {}
    if param_text:
        for item in param_text.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise MachineParamError(
                    f"bad machine parameter {item!r} (expected k=v) in {text!r}"
                )
            try:
                overrides[key] = int(value.strip())
            except ValueError:
                raise MachineParamError(
                    f"machine parameter {key} must be an integer, got "
                    f"{value.strip()!r}"
                ) from None
    return name, overrides


def machine_from_cli(
    text: str, load_latency: "int | None" = None
) -> Machine:
    """Resolve a CLI ``--machine`` argument, folding in ``--load-latency``.

    An explicit ``--load-latency`` applies when the family has that knob
    and the spec text did not already set it, so
    ``--machine cydra5 --load-latency 7`` keeps meaning what the
    pre-registry flag meant.
    """
    name, overrides = parse_machine_arg(text)
    family = get_family(name)
    if (
        load_latency is not None
        and "load_latency" in family.param_names()
        and "load_latency" not in overrides
    ):
        overrides["load_latency"] = load_latency
    return family.build(**overrides)
