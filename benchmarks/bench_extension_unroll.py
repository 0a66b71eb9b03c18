"""§3.1 extension: unrolling to exploit fractional MII.

The paper: "if a compiler performs loop unrolling, then it can take
advantage of fractional lower bounds.  For instance, if a loop had an
exact minimum II of 3/2, then the compiler could unroll the loop once
and attempt to schedule for an II of 3.  Unfortunately, the current
compiler does not perform any such loop transformations."

This benchmark implements the missing transformation and measures it on
recurrence-limited loops: per-source-iteration II drops toward the
fractional bound as the unroll factor grows, while semantics (checked
elsewhere by the test suite) are preserved.
"""

import dataclasses

from repro.core import modulo_schedule
from repro.frontend import ArrayRef, Assign, DoLoop, Scalar, compile_loop
from repro.frontend.transforms import unroll
from repro.machine import Machine, table1_units

from harness import publish


def _wide_machine() -> Machine:
    """Table 1 with doubled unit counts.

    Unrolling multiplies per-iteration resource use by the factor, so on
    the paper's narrow machine ResMII quickly masks the recurrence-bound
    gains this experiment isolates; a 2x-wide machine keeps the cases
    recurrence-bound across the sweep.
    """
    widened = tuple(
        dataclasses.replace(unit, count=unit.count * 2) for unit in table1_units()
    )
    return Machine("cydra5-wide", widened)


def _fractional_cases():
    # Exact minimum 3/2: mul(2) + add(1) over distance 2.
    frac_3_2 = DoLoop(
        "frac32",
        body=[Assign(ArrayRef("x"), ArrayRef("x", -2) * Scalar("c") + ArrayRef("y"))],
        arrays={"x": 300, "y": 300},
        scalars={"c": 0.5},
        trip=24,
    )
    # Exact minimum 4/3: mul(2) + mul(2) over distance 3.
    frac_4_3 = DoLoop(
        "frac43",
        body=[
            Assign(
                ArrayRef("x"),
                ArrayRef("x", -3) * Scalar("c") * ArrayRef("y"),
            )
        ],
        arrays={"x": 400, "y": 400},
        scalars={"c": 0.9},
        trip=24,
    )
    return [(frac_3_2, 3 / 2), (frac_4_3, 4 / 3)]


def _sweep(program, factors, target):
    rows = []
    for factor in factors:
        transformed = unroll(program, factor) if factor > 1 else program
        result = modulo_schedule(compile_loop(transformed), target)
        rows.append((factor, result.ii, result.ii / factor, result.optimal))
    return rows


def test_extension_unroll(benchmark):
    cases = _fractional_cases()
    target = _wide_machine()
    sweeps = benchmark.pedantic(
        lambda: [(p.name, bound, _sweep(p, [1, 2, 3, 4], target)) for p, bound in cases],
        rounds=1,
        iterations=1,
    )
    lines = ["Extension: unrolling for fractional MII (Section 3.1)",
             "(on a 2x-wide Table 1 machine, keeping the loops recurrence-bound)"]
    for name, bound, rows in sweeps:
        lines.append(f"\n{name} (exact minimum II = {bound:.3f} per source iteration)")
        lines.append(f"{'factor':>7} {'II':>5} {'II/iter':>8} {'optimal':>8}")
        for factor, ii, per_iter, optimal in rows:
            lines.append(f"{factor:>7} {ii:>5} {per_iter:>8.3f} {str(optimal):>8}")
    publish("extension_unroll", "\n".join(lines))

    for name, bound, rows in sweeps:
        base = rows[0][2]
        best = min(per_iter for _, _, per_iter, _ in rows)
        assert best < base, f"{name}: unrolling never improved throughput"
        assert best <= bound + 0.51, f"{name}: did not approach the fractional bound"
