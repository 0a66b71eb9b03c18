"""VLIW machine models: units, reservations, registry.

The default target is the paper's Cydra-5-like VLIW (:func:`cydra5`);
:mod:`repro.machine.registry` generalizes it into a declarative zoo of
named, parameterized machine descriptions shared by the CLI, the batch
service, the wire protocol and the bench harness.
"""

from repro.machine.machine import Machine, UnitInstance, cydra5
from repro.machine.mrt import ModuloResourceTable
from repro.machine.registry import (
    MachineError,
    MachineFamily,
    MachineParam,
    MachineParamError,
    UnknownMachineError,
    build_machine,
    default_machines,
    get_family,
    machine_from_cli,
    machine_names,
    parse_machine_arg,
    register_family,
)
from repro.machine.units import UnitClass, table1_units

__all__ = [
    "Machine",
    "MachineError",
    "MachineFamily",
    "MachineParam",
    "MachineParamError",
    "UnitInstance",
    "UnknownMachineError",
    "build_machine",
    "cydra5",
    "default_machines",
    "get_family",
    "machine_from_cli",
    "machine_names",
    "parse_machine_arg",
    "register_family",
    "ModuloResourceTable",
    "UnitClass",
    "table1_units",
]
