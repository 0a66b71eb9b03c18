"""The MinDist relation (paper §4.1).

``MinDist(x, y)`` is the minimum number of cycles (possibly negative) by
which x must precede y in any feasible schedule at a given II, or "no
constraint" if the dependence graph has no path from x to y.  It is the
all-pairs *longest* path under arc costs ``latency - omega * II``;
because ``II >= RecMII`` every dependence cycle has non-positive cost,
so the closure is well defined.

Computed with a vectorized Floyd–Warshall over a numpy int64 matrix
("no path" is a large negative sentinel).  The graph's
:class:`~repro.bounds.analysis.LoopAnalysis` owns the finished closures,
one read-only matrix per II, and the per-arc cost arrays they are built
from, so rebuilding the cost matrix at an escalated II is one vectorized
``latency - omega * II`` update, and the driver's escalation loop and
the evaluation harness share every (graph, II) closure.  The RecMII
search (:mod:`repro.bounds.recmii`) runs :func:`compute_closure` on one
recurrence component at a time and keeps none of its matrices.

The "no path" boundary is owned by this module: every consumer must
test entries through :data:`NO_PATH_CUTOFF` / :func:`is_path` /
:func:`path_mask` rather than hand-rolling a comparison (historically
one caller used ``>`` where this module used ``>=``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.ir.ddg import DDG
from repro.obs.prof import NULL_PROFILER

#: Sentinel for "no path".  Far below any reachable cost, but safe to
#: add to itself inside int64.
NO_PATH = -(2**40)

#: Threshold below which a closure entry is treated as "no path": an
#: entry represents a real path iff it is >= this cutoff.  This is the
#: single boundary every consumer must share (framework dependence
#: checks included), pinned by tests/bounds/test_mindist.py.
NO_PATH_CUTOFF = -(2**39)


def is_path(entry: int) -> bool:
    """True when a closure entry encodes a real path (scalar form)."""
    return entry >= NO_PATH_CUTOFF


def path_mask(entries: np.ndarray) -> np.ndarray:
    """Boolean mask of real-path entries (vectorized form)."""
    return entries >= NO_PATH_CUTOFF


class MinDist:
    """All-pairs minimum-distance matrix for one (DDG, II) pair.

    A view of the graph's cached closure at ``ii``: ``matrix`` is shared
    read-only with every other MinDist of the same graph and II.
    Getting the closure (the O(n^3) build, or a cache hit) runs in a
    ``bounds.mindist`` span of ``profiler`` (see :mod:`repro.obs.prof`),
    whose duration ``seconds`` keeps; the scheduling driver charges it
    to ``SchedulerStats.mindist_seconds``.
    """

    def __init__(self, ddg: DDG, ii: int, profiler=None):
        from repro.bounds.analysis import LoopAnalysis  # imports this module

        if ii < 1:
            raise ValueError(f"II must be positive, got {ii}")
        self.ddg = ddg
        self.ii = ii
        self.n = ddg.n
        analysis = LoopAnalysis.of(ddg)
        prof = profiler or NULL_PROFILER
        cached = analysis.has_closure(ii)
        with prof.span("bounds.mindist") as span:
            self.matrix, self.feasible = analysis.closure(ii)
        self.seconds = span.seconds
        if cached:
            prof.count("mindist.cache_hits")
        else:
            prof.count("mindist.closures")
            prof.count("mindist.closure_nodes", self.n)

    def dist(self, src: int, dst: int) -> Optional[int]:
        """MinDist(src, dst) in cycles, or None if unconstrained."""
        entry = int(self.matrix[src, dst])
        if not is_path(entry):
            return None
        return entry

    def has_path(self, src: int, dst: int) -> bool:
        return is_path(int(self.matrix[src, dst]))

    def __repr__(self) -> str:
        return f"MinDist(n={self.n}, ii={self.ii}, feasible={self.feasible})"


def compute_closure(n: int, cost_bases, ii: int) -> "tuple[np.ndarray, bool]":
    """Longest-path closure of ``n`` ops at ``ii`` from per-arc
    (src, dst, latency, omega) arrays, and whether ``ii`` is feasible."""
    src, dst, latency, omega = cost_bases
    dist = np.full((n, n), NO_PATH, dtype=np.int64)
    # Max over parallel arcs; only the -omega*II term depends on II.
    np.maximum.at(dist, (src, dst), latency - omega * ii)
    for k in range(n):
        via = dist[:, k : k + 1] + dist[k : k + 1, :]
        np.maximum(dist, via, out=dist)
    diagonal = np.diagonal(dist)
    feasible = bool(np.all((diagonal <= 0) | ~path_mask(diagonal)))
    # The paper sets MinDist(x, x) = 0 for every operation.
    np.fill_diagonal(dist, 0)
    return dist, feasible
