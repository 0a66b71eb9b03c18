"""§7 robustness: results persist across functional-unit latencies.

Paper: "the scheduler appears quite robust, as other experiments with
different latencies for the functional units give very similar
performance results and compilation times."  This benchmark sweeps the
memory latency register (§2.1) across 2 / 13 / 27 cycles and reports
optimality and pressure for the slack scheduler and the unidirectional
ablation.  The claims to reproduce: II = MII rates stay high at every
latency, and the bidirectional advantage never inverts.

The sweep runs through the heterogeneous batch path
(:func:`repro.experiments.run_corpus_sweep`): all three latencies are
submitted as ONE batch with per-job machines, so the process pool
interleaves configurations across workers and each (loop, latency) pair
keeps its own cache key.
"""

import os

from repro.experiments import cumulative_at, run_corpus_sweep
from repro.machine import cydra5

from harness import corpus, corpus_size, publish

LATENCIES = (2, 13, 27)


def _measure_all():
    machines = [cydra5(load_latency=latency) for latency in LATENCIES]
    programs = corpus()[: min(250, corpus_size())]
    jobs = min(4, os.cpu_count() or 1)
    results = {latency: {} for latency in LATENCIES}
    for algorithm in ("slack", "unidirectional"):
        swept = run_corpus_sweep(
            programs, machines, algorithm=algorithm, jobs=jobs
        )
        for latency, metrics in zip(LATENCIES, swept):
            gaps = [m.pressure_gap for m in metrics if m.success]
            results[latency][algorithm] = {
                "optimal_ii": 100.0 * sum(1 for m in metrics if m.optimal) / len(metrics),
                "optimal_pressure": cumulative_at(gaps, 0),
                "sum_maxlive": sum(m.max_live for m in metrics if m.success),
            }
    return results


def test_robustness_latency(benchmark):
    results = benchmark.pedantic(_measure_all, rounds=1, iterations=1)
    lines = [
        "Robustness: memory latency sweep (Section 7)",
        f"{'latency':>8} {'algorithm':<16} {'II=MII':>8} {'gap=0':>7} {'sum MaxLive':>12}",
    ]
    for latency, rows in results.items():
        for algorithm, row in rows.items():
            lines.append(
                f"{latency:>8} {algorithm:<16} {row['optimal_ii']:>7.1f}% "
                f"{row['optimal_pressure']:>6.1f}% {row['sum_maxlive']:>12}"
            )
    publish("robustness_latency", "\n".join(lines))

    for latency, rows in results.items():
        assert rows["slack"]["optimal_ii"] >= 90.0, f"latency {latency}"
        assert (
            rows["slack"]["sum_maxlive"] <= rows["unidirectional"]["sum_maxlive"]
        ), f"bidirectional advantage inverted at latency {latency}"
