"""Footnote-1 extension: trading II for registers without spill code.

The paper assumes an infinite register supply because "no one as yet
has a good strategy for spilling registers in a software pipeline."
The dual strategy needs no spills at all: when MaxLive exceeds the
register budget, raise II until the pressure fits.  This benchmark
sweeps RR budgets over pressure-heavy kernels and reports the
II-versus-registers curve — the knee shows how cheaply pressure can be
bought once the schedule is allowed to stretch.
"""

from repro.bounds import rr_max_live
from repro.core import SchedulerOptions, modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg
from repro.workloads.livermore import kernel7_state, kernel9_integrate
from repro.workloads.spec import stencil5

from harness import machine, publish


def _sweep(program):
    loop = compile_loop(program)
    ddg = build_ddg(loop, machine())
    free = modulo_schedule(loop, machine(), ddg=ddg)
    free_pressure = rr_max_live(loop, ddg, free.schedule.times, free.ii)
    rows = [("inf", free.ii, free_pressure)]
    for budget in range(free_pressure - 1, 3, -2):
        limited = modulo_schedule(
            loop, machine(), ddg=ddg,
            options=SchedulerOptions(max_rr_pressure=budget, max_attempts=60),
        )
        if not limited.success:
            rows.append((str(budget), None, None))
            break
        pressure = rr_max_live(loop, ddg, limited.schedule.times, limited.ii)
        rows.append((str(budget), limited.ii, pressure))
    return program.name, free.mii, rows


def test_extension_pressure_limit(benchmark):
    programs = [kernel7_state(), kernel9_integrate(), stencil5()]
    sweeps = benchmark.pedantic(
        lambda: [_sweep(p) for p in programs], rounds=1, iterations=1
    )
    lines = ["Extension: pressure-limited scheduling (trade II for registers)"]
    for name, mii, rows in sweeps:
        lines.append(f"\n{name} (MII {mii})")
        lines.append(f"{'RR budget':>10} {'II':>5} {'MaxLive':>8}")
        for budget, ii, pressure in rows:
            if ii is None:
                lines.append(f"{budget:>10} {'fail':>5} {'-':>8}")
            else:
                lines.append(f"{budget:>10} {ii:>5} {pressure:>8}")
    publish("extension_pressure_limit", "\n".join(lines))

    for name, mii, rows in sweeps:
        _, free_ii, free_pressure = rows[0]
        successes = [(ii, p) for _, ii, p in rows[1:] if ii is not None]
        assert successes, f"{name}: no budget was satisfiable"
        # Every satisfied budget was honored, monotonically paying II.
        for (budget, ii, pressure) in rows[1:]:
            if ii is not None:
                assert pressure <= int(budget)
                assert ii >= free_ii
