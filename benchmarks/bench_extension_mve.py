"""§2.3 comparison: rotating register file vs modulo variable expansion.

The paper motivates the rotating register file as the hardware that
avoids MVE's code duplication: "this modulo variable expansion
technique can result in a large amount of code expansion [18]".  This
benchmark quantifies the claim over the corpus: for every scheduled
loop, kernel-only code (rotating file) is exactly one kernel copy,
while MVE needs prologue + U unrolled kernels + epilogue, with U driven
by the longest lifetime.  Register cost is compared too: rotating
MaxLive vs MVE's sum of per-value name counts.
"""

import statistics

from repro.bounds import rr_max_live
from repro.codegen.mve import plan_mve
from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.ir import build_ddg

from harness import corpus, corpus_size, machine, publish


def _measure(programs):
    rows = []
    for program in programs:
        loop = compile_loop(program)
        ddg = build_ddg(loop, machine())
        result = modulo_schedule(loop, machine(), ddg=ddg)
        if not result.success:
            continue
        rotating_pressure = rr_max_live(loop, ddg, result.schedule.times, result.ii)
        by_policy = {}
        for policy in ("minimal", "power2", "uniform"):
            try:
                plan = plan_mve(result.schedule, ddg, policy=policy)
            except RuntimeError:
                by_policy[policy] = None
                continue
            by_policy[policy] = (plan.unroll, plan.expansion, plan.total_registers)
        rows.append((program.name, rotating_pressure, by_policy))
    return rows


def test_extension_mve(benchmark):
    programs = corpus()[: min(200, corpus_size())]
    rows = benchmark.pedantic(lambda: _measure(programs), rounds=1, iterations=1)

    lines = [
        "Extension: rotating file vs modulo variable expansion (Section 2.3)",
        f"loops measured: {len(rows)} (kernel-only code expansion = 1.00x always)",
    ]
    for policy in ("minimal", "power2", "uniform"):
        expansions = [r[2][policy][1] for r in rows if r[2][policy] is not None]
        unrolls = [r[2][policy][0] for r in rows if r[2][policy] is not None]
        blown = sum(1 for r in rows if r[2][policy] is None)
        lines.append(
            f"  MVE {policy:<8}: median expansion {statistics.median(expansions):5.2f}x, "
            f"max {max(expansions):6.2f}x; median unroll {statistics.median(unrolls):.0f}, "
            f"max {max(unrolls)}; {blown} loops over the unroll cap"
        )
    rotating = [r[1] for r in rows]
    mve_regs = [r[2]["power2"][2] for r in rows if r[2]["power2"] is not None]
    lines.append(
        f"  registers: rotating MaxLive median {statistics.median(rotating):.0f} "
        f"vs MVE(power2) names median {statistics.median(mve_regs):.0f}"
    )
    publish("extension_mve", "\n".join(lines))

    power2 = [r[2]["power2"][1] for r in rows if r[2]["power2"] is not None]
    # The paper's claim: MVE costs a large amount of code expansion.
    assert statistics.median(power2) >= 2.0
    assert max(power2) >= 4.0
