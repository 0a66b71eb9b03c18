"""Simulators: sequential reference semantics and pipelined executors."""

from repro.simulator.dataflow import SimulationError, run_pipelined
from repro.simulator.sequential import run_sequential
from repro.simulator.state import (
    MachineState,
    clamp_element,
    fdiv,
    fsqrt,
    initial_state,
    seeded_value,
    state_mismatches,
)

__all__ = [
    "SimulationError",
    "run_pipelined",
    "run_sequential",
    "MachineState",
    "clamp_element",
    "fdiv",
    "fsqrt",
    "initial_state",
    "seeded_value",
    "state_mismatches",
]
