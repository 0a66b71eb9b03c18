"""Experiment harness: corpus measurement and table/figure regeneration.

Importing the package loads only what the batch service runs: the
metrics record and the corpus runner (:func:`measure_loop`).  The
tables, figures, report and export modules load on first use of one of
their names (see :mod:`repro._deferred`).
"""

from repro._deferred import deferred_exports
from repro.experiments.metrics import LoopMetrics, percentile, quantile_row
from repro.experiments.runner import (
    classify,
    measure_loop,
    run_corpus,
    run_corpus_sweep,
    sweep_layout,
)

__getattr__ = deferred_exports(globals(), {
    "repro.experiments.figures": (
        "binned_percentages",
        "cumulative_at",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "render_histogram",
    ),
    "repro.experiments.export": (
        "metrics_fieldnames",
        "to_csv",
        "to_json",
        "write_csv",
        "write_json",
    ),
    "repro.experiments.report": ("full_report",),
    "repro.experiments.tables": (
        "scheduling_performance",
        "section6_effort",
        "table2",
        "table3",
        "table4",
    ),
})

__all__ = [
    "binned_percentages",
    "cumulative_at",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "render_histogram",
    "LoopMetrics",
    "full_report",
    "metrics_fieldnames",
    "to_csv",
    "to_json",
    "write_csv",
    "write_json",
    "percentile",
    "quantile_row",
    "classify",
    "measure_loop",
    "run_corpus",
    "run_corpus_sweep",
    "sweep_layout",
    "scheduling_performance",
    "section6_effort",
    "table2",
    "table3",
    "table4",
]
