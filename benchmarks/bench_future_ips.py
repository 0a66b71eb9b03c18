"""§8 future work: slack scheduling on straight-line code, vs IPS.

The paper: "the bidirectional slack-scheduling framework, which can be
applied to straight-line code as well as loops, attempts to integrate
lifetime sensitivity into the placement of each operation.  Future
experimentation may assess how well slack-scheduling would work in the
context where IPS has been studied."

The experiment: over a corpus of basic blocks (loop bodies with the
carried dependences dropped), compare

* critical-path list scheduling (the pre-IPS baseline);
* IPS with a per-block register limit two below the baseline's pressure
  (so its pressure-reduction mode genuinely engages);
* the bidirectional slack framework in straight-line mode.

Reported per scheduler: total makespan and total peak register
pressure.  Expected shape: slack buys a visible pressure reduction for
a small makespan cost, *without* needing a register-limit knob.
"""

from repro.core.acyclic import acyclic_ddg, schedule_ips, schedule_list, schedule_slack
from repro.frontend import compile_loop

from harness import corpus, corpus_size, machine, publish


def _measure(programs):
    rows = {"list": [0, 0], "ips": [0, 0], "slack": [0, 0]}
    for program in programs:
        loop = compile_loop(program)
        ddg = acyclic_ddg(loop, machine())
        base = schedule_list(loop, machine(), ddg)
        limited = schedule_ips(
            loop, machine(), ddg, pressure_limit=max(2, base.pressure - 2)
        )
        slack = schedule_slack(loop, machine(), ddg)
        for name, result in (("list", base), ("ips", limited), ("slack", slack)):
            rows[name][0] += result.length
            rows[name][1] += result.pressure
    return rows


def test_future_ips(benchmark):
    programs = corpus()[: min(200, corpus_size())]
    rows = benchmark.pedantic(lambda: _measure(programs), rounds=1, iterations=1)
    lines = [
        "Future work (Section 8): slack scheduling of straight-line code",
        f"basic blocks: {len(programs)}",
        f"{'scheduler':<22} {'sum makespan':>12} {'sum pressure':>13}",
        f"{'list (critical path)':<22} {rows['list'][0]:>12} {rows['list'][1]:>13}",
        f"{'IPS (limit = base-2)':<22} {rows['ips'][0]:>12} {rows['ips'][1]:>13}",
        f"{'bidirectional slack':<22} {rows['slack'][0]:>12} {rows['slack'][1]:>13}",
    ]
    publish("future_ips", "\n".join(lines))

    # Slack's integrated lifetime sensitivity beats both on pressure...
    assert rows["slack"][1] <= rows["ips"][1]
    assert rows["slack"][1] < rows["list"][1]
    # ...at a bounded makespan premium.
    assert rows["slack"][0] <= rows["list"][0] * 1.2
