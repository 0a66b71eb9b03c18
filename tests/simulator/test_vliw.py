"""Register-level VLIW simulation: the deepest end-to-end validation.

compile -> schedule -> allocate rotating registers -> generate kernel
-> run the kernel on rotating register files == sequential execution,
exactly (NaN equal only to NaN), on every registry target.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import CodegenError, generate_kernel
from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import ArcKind, Opcode, build_ddg
from repro.machine import Machine, build_machine, cydra5, machine_names
from repro.regalloc import allocate_registers
from repro.simulator import SimulationError, initial_state, run_sequential, state_mismatches
from repro.simulator import vliw
from repro.simulator.vliw import run_vliw
from repro.workloads import LoopGenerator, named_kernels

from tests.conftest import on_targets

MACHINE = cydra5()
MACHINES = {name: build_machine(name) for name in machine_names()}


def _kernel(program, machine=MACHINE):
    loop = compile_loop(program)
    ddg = build_ddg(loop, machine)
    result = modulo_schedule(loop, machine, ddg=ddg)
    assert result.success
    return generate_kernel(result.schedule, allocate_registers(result.schedule, ddg))


def assert_vliw_equivalent(program, target="cydra5"):
    kernel = _kernel(program, MACHINES[target])
    sequential = run_sequential(program, initial_state(program))
    register_level = run_vliw(kernel, initial_state(program))
    mismatches = state_mismatches(program, sequential, register_level)
    assert not mismatches, f"{program.name} on {target}: {mismatches[:3]}"


@on_targets(named_kernels())
def test_named_kernels_register_level(program, target):
    assert_vliw_equivalent(program, target)


@st.composite
def random_programs(draw):
    """A generated loop and the registry target to run it on."""
    seed = draw(st.integers(min_value=0, max_value=5_000))
    klass = draw(st.sampled_from(["neither", "conditional", "recurrence", "both"]))
    target = draw(st.sampled_from(machine_names()))
    return LoopGenerator(seed).generate(f"vliw_{seed}_{klass}", klass), target


@given(random_programs())
@settings(max_examples=25, deadline=None)
def test_random_programs_register_level(case):
    assert_vliw_equivalent(*case)


def _stepped(kernel, program):
    """``run_vliw`` with every kernel op on its ``lower_op`` step."""
    with mock.patch.object(vliw, "plain_form", lambda op: None):
        return run_vliw(kernel, initial_state(program))


def assert_inline_matches_steps(program, target):
    kernel = _kernel(program, MACHINES[target])
    inline = run_vliw(kernel, initial_state(program))
    assert repr(inline) == repr(_stepped(kernel, program)), f"{program.name} on {target}"


@pytest.mark.parametrize("target", machine_names())
def test_inline_reads_match_lower_op_steps_on_named_kernels(target):
    for program in named_kernels():
        assert_inline_matches_steps(program, target)


@given(random_programs())
@settings(max_examples=25, deadline=None)
def test_inline_reads_match_lower_op_steps_on_random_programs(case):
    assert_inline_matches_steps(*case)


def test_only_ops_off_the_inline_path_are_lowered_to_steps():
    """ll16_monte has SELECT and AND_B ops (steps) beside plain ones."""
    program = next(p for p in named_kernels() if p.name == "ll16_monte")
    kernel = _kernel(program)
    ops = [kop.op for kop in kernel.all_ops() if kop.op.opcode is not Opcode.BRTOP]
    lower_op = vliw.lower_op
    lowered = []

    def recording_lower_op(op, reader, state):
        lowered.append(op)
        return lower_op(op, reader, state)

    with mock.patch.object(vliw, "lower_op", recording_lower_op):
        run_vliw(kernel, initial_state(program))
        stepped = {id(op) for op in lowered}
        assert stepped == {id(op) for op in ops if op.opcode in (Opcode.SELECT, Opcode.AND_B)}
        lowered.clear()
        _stepped(kernel, program)
    assert {id(op) for op in lowered} == {id(op) for op in ops}


def _with_operands(kernel, kop, operands=None, predicate=None):
    """``kernel`` with ``kop``'s encoded operands or predicate replaced."""
    changes = {"operands": operands} if operands is not None else {}
    if predicate is not None:
        changes["predicate"] = predicate
    rows = [
        [dataclasses.replace(other, **changes) if other is kop else other for other in row]
        for row in kernel.rows
    ]
    return dataclasses.replace(kernel, rows=rows)


def _arithmetic_op(kernel, position=0):
    """A kernel op that always reads its operands, and whose operand at
    ``position`` is a rotating register."""
    return next(
        kop
        for kop in kernel.all_ops()
        if kop.op.opcode in (Opcode.ADD_F, Opcode.MUL_F) and kop.operands[position].kind == "rr"
    )


def _unary_op(kernel):
    return next(
        kop
        for kop in kernel.all_ops()
        if kop.op.opcode is Opcode.SQRT_F and kop.operands[0].kind == "rr"
    )


def _predicated_store(kernel):
    """An affine store whose predicate and value are rotating registers."""
    return next(
        kop
        for kop in kernel.all_ops()
        if kop.op.opcode is Opcode.STORE
        and "abs" in kop.op.attrs
        and kop.predicate is not None
        and kop.predicate.kind == "icr"
        and kop.operands[1].kind == "rr"
    )


def _roomy(kernel, program):
    """``kernel`` on rotating files large enough that the registers half
    a file away from every specifier are never written, and that size.

    A larger rotating file runs the same code (specifiers resolve modulo
    its size), and leaves those registers untouched: no write or live-in
    preload ever lands there."""
    assignment = kernel.assignment
    largest = max(assignment.rr_registers, assignment.icr_registers)
    size = 4 * (largest + program.trip + kernel.stages)
    rr = dataclasses.replace(assignment.rr, registers=size)
    icr = dataclasses.replace(assignment.icr, registers=size)
    roomy = dataclasses.replace(
        kernel, assignment=dataclasses.replace(assignment, rr=rr, icr=icr)
    )
    sequential = run_sequential(program, initial_state(program))
    assert not state_mismatches(program, sequential, run_vliw(roomy, initial_state(program)))
    return roomy, size


def _far(encoded, size):
    return dataclasses.replace(encoded, spec=encoded.spec + size // 2)


def test_read_of_an_unwritten_register_raises():
    """One op of each register-reading inline kind reads a register no
    write reached: each raises, with the message its step would give."""
    by_name = {program.name: program for program in named_kernels()}
    broken = []  # (program, op, kernel whose op reads a far register)
    program = named_kernels()[0]
    kernel, size = _roomy(_kernel(program), program)
    kop = _arithmetic_op(kernel)
    far_left = [_far(kop.operands[0], size)] + kop.operands[1:]
    broken.append((program, kop.op, _with_operands(kernel, kop, far_left)))
    kop = _arithmetic_op(kernel, position=1)
    far_right = [kop.operands[0], _far(kop.operands[1], size)]
    broken.append((program, kop.op, _with_operands(kernel, kop, far_right)))
    program = by_name["spec_normalize"]
    kernel, size = _roomy(_kernel(program), program)
    kop = _unary_op(kernel)
    broken.append((program, kop.op, _with_operands(kernel, kop, [_far(kop.operands[0], size)])))
    program = by_name["ll15_casual"]
    kernel, size = _roomy(_kernel(program), program)
    kop = _predicated_store(kernel)
    far_predicate = _with_operands(kernel, kop, predicate=_far(kop.predicate, size))
    broken.append((program, kop.op, far_predicate))
    far_value = kop.operands[:1] + [_far(kop.operands[1], size)] + kop.operands[2:]
    broken.append((program, kop.op, _with_operands(kernel, kop, far_value)))

    for program, op, kernel in broken:
        with pytest.raises(SimulationError, match="returned an unwritten register") as inline:
            run_vliw(kernel, initial_state(program))
        assert str(inline.value).startswith(f"{op!r} iteration ")
        with pytest.raises(SimulationError) as stepped:
            _stepped(kernel, program)
        assert str(inline.value) == str(stepped.value)


def test_an_unwritten_gpr_read_names_its_physical_register():
    """A GPR does not rotate: the error names the register the read
    looked at, ``spec mod size``, in a kernel iteration m with
    m mod size != 0, where the rotating ``(spec - m) mod size`` differs."""
    program = next(p for p in named_kernels() if p.name == "ll1_hydro")
    kernel = _kernel(program)
    assignment = kernel.assignment
    size = assignment.gpr_registers + 1
    unwritten = size - 1  # a GPR no invariant is allocated to
    kernel = dataclasses.replace(
        kernel,
        assignment=dataclasses.replace(assignment, gpr={**assignment.gpr, -1: unwritten}),
    )
    kop = next(
        kop
        for kop in kernel.all_ops()
        if kop.stage % size and any(o is not None and o.kind == "gpr" for o in kop.operands)
    )
    operands = [
        dataclasses.replace(o, spec=unwritten + size) if o is not None and o.kind == "gpr" else o
        for o in kop.operands
    ]
    kernel = _with_operands(kernel, kop, operands)
    expected = f"read of gpr[{unwritten + size}] (physical {unwritten}) returned an unwritten"
    with pytest.raises(SimulationError) as inline:
        run_vliw(kernel, initial_state(program))
    assert expected in str(inline.value)
    with pytest.raises(SimulationError) as stepped:
        _stepped(kernel, program)
    assert expected in str(stepped.value)


def test_operand_without_an_encoding_raises():
    program = named_kernels()[0]
    kernel = _kernel(program)
    broken = _with_operands(kernel, _arithmetic_op(kernel), [])
    # The op falls back to its step, which raises when it reads.
    with pytest.raises(SimulationError, match="not encoded"):
        run_vliw(broken, initial_state(program))


def _full_latency_flow_arc(schedule, ddg):
    """The first zero-distance flow arc of latency >= 2 whose consumer
    issues exactly ``latency`` cycles after its producer, or None."""
    times = schedule.times
    return next(
        (
            arc
            for arc in ddg.arcs
            if arc.kind is ArcKind.FLOW
            and arc.omega == 0
            and arc.latency >= 2
            and times[arc.dst] - times[arc.src] == arc.latency
        ),
        None,
    )


def test_a_consumer_issued_inside_its_producers_latency_is_caught():
    """Moved one cycle early, a consumer reads its operand's register
    before the write commits.  Register allocation reserves a register
    from its def's issue cycle, so only the commit timing can expose
    the early read: the kernel must raise or differ from sequential."""
    checked, missed = [], []
    for program in named_kernels():
        loop = compile_loop(program)
        ddg = build_ddg(loop, MACHINE)
        schedule = modulo_schedule(loop, MACHINE, ddg=ddg).schedule
        arc = _full_latency_flow_arc(schedule, ddg)
        if arc is None:
            continue
        times = dict(schedule.times)
        times[arc.dst] -= 1
        broken = dataclasses.replace(schedule, times=times)
        try:
            kernel = generate_kernel(broken, allocate_registers(broken, ddg))
        except CodegenError:
            continue  # the move emptied another value's lifetime
        checked.append(program.name)
        sequential = run_sequential(program, initial_state(program))
        try:
            final = run_vliw(kernel, initial_state(program))
        except SimulationError:
            continue
        if not state_mismatches(program, sequential, final):
            missed.append(program.name)
    assert len(checked) >= 40, f"only {len(checked)} kernels have such an arc"
    assert not missed, f"early reads went unnoticed in {missed}"


def test_a_kernel_op_with_write_latency_zero_raises():
    """Commits are drained before a cycle's issues, so a write due in
    its own issue cycle has no place in the commit order."""
    units = [
        dataclasses.replace(
            unit,
            op_latencies=tuple(
                (opcode, 0 if opcode is Opcode.ADDR_ADD else latency)
                for opcode, latency in unit.op_latencies
            ),
        )
        for unit in MACHINE.unit_classes
    ]
    program = named_kernels()[0]
    kernel = _kernel(program, Machine("zero-latency-addr", units))
    with pytest.raises(SimulationError, match="write latency 0"):
        run_vliw(kernel, initial_state(program))


def test_bad_trip_rejected():
    program = named_kernels()[2]
    loop = compile_loop(program)
    result = modulo_schedule(loop, MACHINE)
    kernel = generate_kernel(result.schedule)
    with pytest.raises(ValueError):
        run_vliw(kernel, initial_state(program), trip=0)


def test_loop_control_counters():
    """Cydra brtop semantics: LC starts new iterations, ESC drains."""
    from repro.simulator.vliw import _LoopControl

    control = _LoopControl(stages=3, trip=2)
    # Iteration 0's stage-0 predicate is preset.
    assert control.stage_active(0, 0)
    # m=0: LC 1->0, iteration 1 enabled.
    assert control.brtop(0)
    assert control.stage_active(0, 1)  # iteration 1 at stage 0
    assert control.stage_active(1, 1)  # iteration 0 reached stage 1
    # m=1: draining begins (ESC 2 -> 1): no new iteration at m=2.
    assert control.brtop(1)
    assert not control.stage_active(0, 2)
    assert control.stage_active(1, 2)  # iteration 1 at stage 1
    assert control.stage_active(2, 2)  # iteration 0 at stage 2
    # m=2: ESC 1 -> 0; m=3: fully drained.
    assert control.brtop(2)
    assert not control.brtop(3)


def test_pipeline_runs_exactly_trip_plus_stages_minus_one_kernels():
    from repro.simulator.vliw import _LoopControl

    for trip, stages in ((1, 1), (2, 3), (5, 2), (4, 7)):
        control = _LoopControl(stages=stages, trip=trip)
        kernels = 0
        m = 0
        while True:
            kernels += 1
            if not control.brtop(m):
                break
            m += 1
        assert kernels == trip + stages - 1
