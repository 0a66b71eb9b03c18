"""Shared fixtures and hand-built IR loops for the test suite."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import pytest

from repro.ir import DType, LoopBody, Opcode, Operand, ValueKind
from repro.machine import cydra5, machine_names


@pytest.fixture(scope="session")
def machine():
    """The paper's Table 1 machine with the default 13-cycle loads."""
    return cydra5()


@pytest.fixture
def made_dirs(monkeypatch):
    """Prefixes of every temporary directory made in this process."""
    made = []
    mkdtemp = tempfile.mkdtemp

    def _spy(suffix=None, prefix=None, dir=None):
        made.append(prefix)
        return mkdtemp(suffix, prefix, dir)

    monkeypatch.setattr(tempfile, "mkdtemp", _spy)
    return made


def run_python(script: str, **env_overrides):
    """stdout lines of ``script`` run by a fresh interpreter on ``src``."""
    env = dict(os.environ, **env_overrides)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def on_targets(programs):
    """Parametrize a test over ``(program, target)`` for every registry
    target.  A cydra5 case is named after its program alone, which keeps
    the paper machine's test ids stable; the rest are ``program-target``."""
    cases = []
    for target in machine_names():
        for program in programs:
            name = program.name if target == "cydra5" else f"{program.name}-{target}"
            cases.append(pytest.param(program, target, id=name))
    return pytest.mark.parametrize("program, target", cases)


def build_figure1_loop() -> LoopBody:
    """The paper's Figure 1 sample loop, after load/store elimination.

    do i = 3, n
        x(i) = x(i-1) + y(i-2)
        y(i) = y(i-1) + x(i-2)
    enddo

    Loads of x(i-1), y(i-2), y(i-1), x(i-2) are replaced by register flow
    from earlier iterations; the stores and their address induction
    variables remain.
    """
    loop = LoopBody("figure1")
    xv = loop.new_value("x", DType.FLOAT)
    yv = loop.new_value("y", DType.FLOAT)
    ax = loop.new_value("ax", DType.ADDR)
    ay = loop.new_value("ay", DType.ADDR)
    four = loop.constant(4, DType.ADDR)

    loop.add_op(Opcode.ADDR_ADD, ax, [Operand(ax, back=1), Operand(four)])
    loop.add_op(Opcode.ADDR_ADD, ay, [Operand(ay, back=1), Operand(four)])
    loop.add_op(Opcode.ADD_F, xv, [Operand(xv, back=1), Operand(yv, back=2)])
    loop.add_op(Opcode.ADD_F, yv, [Operand(yv, back=1), Operand(xv, back=2)])
    store_x = loop.add_op(Opcode.STORE, None, [Operand(ax), Operand(xv)], array="x")
    store_y = loop.add_op(Opcode.STORE, None, [Operand(ay), Operand(yv)], array="y")
    loop.add_op(Opcode.BRTOP)
    loop.meta["has_conditional"] = False
    return loop.finalize()


def build_accumulator_loop() -> LoopBody:
    """A dot-product-style reduction: s = s + x(i) * y(i), loads kept."""
    loop = LoopBody("dotprod")
    ax = loop.new_value("ax", DType.ADDR)
    ay = loop.new_value("ay", DType.ADDR)
    xv = loop.new_value("x", DType.FLOAT)
    yv = loop.new_value("y", DType.FLOAT)
    pv = loop.new_value("p", DType.FLOAT)
    sv = loop.new_value("s", DType.FLOAT)
    four = loop.constant(4, DType.ADDR)

    loop.add_op(Opcode.ADDR_ADD, ax, [Operand(ax, back=1), Operand(four)])
    loop.add_op(Opcode.ADDR_ADD, ay, [Operand(ay, back=1), Operand(four)])
    loop.add_op(Opcode.LOAD, xv, [Operand(ax)], array="x")
    loop.add_op(Opcode.LOAD, yv, [Operand(ay)], array="y")
    loop.add_op(Opcode.MUL_F, pv, [Operand(xv), Operand(yv)])
    loop.add_op(Opcode.ADD_F, sv, [Operand(sv, back=1), Operand(pv)])
    loop.add_op(Opcode.BRTOP)
    loop.live_out["s"] = sv
    return loop.finalize()


def build_divider_loop() -> LoopBody:
    """A loop with a float divide (non-pipelined divider pressure)."""
    loop = LoopBody("divloop")
    ax = loop.new_value("ax", DType.ADDR)
    xv = loop.new_value("x", DType.FLOAT)
    qv = loop.new_value("q", DType.FLOAT)
    four = loop.constant(4, DType.ADDR)
    cv = loop.invariant("c", DType.FLOAT)

    loop.add_op(Opcode.ADDR_ADD, ax, [Operand(ax, back=1), Operand(four)])
    load = loop.add_op(Opcode.LOAD, xv, [Operand(ax)], array="x")
    loop.add_op(Opcode.DIV_F, qv, [Operand(xv), Operand(cv)])
    store = loop.add_op(Opcode.STORE, None, [Operand(ax), Operand(qv)], array="x")
    loop.add_mem_dep(load, store, omega=0)  # anti: read x(i) before overwriting it
    loop.add_op(Opcode.BRTOP)
    return loop.finalize()


@pytest.fixture
def figure1_loop():
    return build_figure1_loop()


@pytest.fixture
def accumulator_loop():
    return build_accumulator_loop()


@pytest.fixture
def divider_loop():
    return build_divider_loop()
