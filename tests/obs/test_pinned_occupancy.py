"""Pinned MRT views: the ``--explain`` occupancy grid and the
``mrt.occupancy.*`` values must hash to :data:`DIGEST` exactly.

Both views are read from a finished schedule, so this pins them
independently of the schedules themselves (which
``tests/core/test_pinned_schedules.py`` and
``tests/core/test_pinned_baselines.py`` pin).  The digest covers
``paper_corpus(120, 1993)`` on every registry target with the slack
and warp schedulers at their default options: for each case its key,
and for each successful one ``render_mrt_occupancy`` of the schedule
plus, in name order, the one value each ``mrt.occupancy.*`` histogram
of a single-loop metrics observer holds.
"""

import hashlib

from repro.core import modulo_schedule
from repro.frontend import compile_loop
from repro.machine import build_machine, machine_names
from repro.obs import MetricsRegistry, Observer, render_mrt_occupancy
from repro.workloads import paper_corpus

ALGORITHMS = ("slack", "warp")
DIGEST = "0db2d69a91b23c9d16bb75539cc542546af4382c1c5db114480682d87d03b6d9"


def occupancy_digest() -> str:
    """SHA-256 over every pinned case's key, grid and occupancy values."""
    digest = hashlib.sha256()
    loops = [compile_loop(program) for program in paper_corpus(120, 1993)]
    for target in machine_names():
        machine = build_machine(target)
        for algorithm in ALGORITHMS:
            for loop in loops:
                metrics = MetricsRegistry()
                result = modulo_schedule(
                    loop, machine, algorithm, observer=Observer(metrics=metrics)
                )
                digest.update(f"{target} {algorithm} {loop.name}\n".encode())
                if not result.success:
                    continue
                digest.update(render_mrt_occupancy(result.schedule).encode())
                histograms = metrics.dump()["histogram_values"]
                for name in sorted(histograms):
                    if name.startswith("mrt.occupancy."):
                        (value,) = histograms[name]
                        digest.update(f"\n{name} {value!r}".encode())
                digest.update(b"\n")
    return digest.hexdigest()


def test_occupancy_grid_and_gauges_match_the_pin():
    assert occupancy_digest() == DIGEST
