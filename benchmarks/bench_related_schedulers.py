"""Grand scheduler comparison: every implemented algorithm, one table.

Pulls the whole field together — the paper's slack scheduler, its
unidirectional ablation, the Cydrome-style static-priority baseline
(Table 4), the IMS-style height-priority scheduler, and the Warp-style
hierarchical reducer (§8) — over one corpus, reporting optimality,
aggregate II inflation, register pressure and backtracking volume.

Expected ordering (the paper's thesis in one table): slack scheduling
matches or beats every baseline on II *and* pressure simultaneously;
the unidirectional ablation gives back the pressure win; the
no-backtracking and static-priority schemes give back II.
"""

from repro.experiments import run_corpus

from harness import corpus, corpus_size, machine, measured, publish

ALGORITHMS = ["slack", "unidirectional", "cydrome", "height", "warp"]


def _summarize(metrics):
    successes = [m for m in metrics if m.success]
    return {
        "optimal": 100.0 * sum(1 for m in metrics if m.optimal) / len(metrics),
        "failures": sum(1 for m in metrics if not m.success),
        "ii_ratio": sum(m.ii for m in successes) / max(1, sum(m.mii for m in successes)),
        "pressure": sum(m.max_live for m in successes),
        "ejections": sum(m.ejections for m in metrics),
    }


def test_related_schedulers(benchmark):
    def run_all():
        rows = {}
        for algorithm in ALGORITHMS:
            if algorithm in ("slack", "cydrome"):
                metrics = measured(algorithm)
            else:
                metrics = run_corpus(corpus(), machine(), algorithm=algorithm)
            rows[algorithm] = _summarize(metrics)
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        "Scheduler comparison (all implemented algorithms)",
        f"{'algorithm':<16} {'II=MII':>8} {'fail':>5} {'II/MII':>7} "
        f"{'sum MaxLive':>12} {'ejections':>10}",
    ]
    for algorithm in ALGORITHMS:
        row = rows[algorithm]
        lines.append(
            f"{algorithm:<16} {row['optimal']:>7.1f}% {row['failures']:>5} "
            f"{row['ii_ratio']:>7.3f} {row['pressure']:>12} {row['ejections']:>10}"
        )
    publish("related_schedulers", "\n".join(lines) + f"\n(corpus size {corpus_size()})")

    slack = rows["slack"]
    # Slack dominates or ties every baseline on the headline metrics.
    for other in ("unidirectional", "cydrome", "height", "warp"):
        assert slack["optimal"] >= rows[other]["optimal"] - 0.5, other
        assert slack["ii_ratio"] <= rows[other]["ii_ratio"] + 1e-9, other
    assert slack["pressure"] <= min(
        rows["unidirectional"]["pressure"],
        rows["cydrome"]["pressure"],
        rows["height"]["pressure"],
    )
