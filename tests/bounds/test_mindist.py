"""Unit tests for the MinDist relation (paper §4.1)."""

from repro.bounds import LoopAnalysis, MinDist
from repro.ir import build_ddg

from tests.conftest import build_figure1_loop


def _ops_by_name(loop):
    named = {}
    for op in loop.real_ops:
        if op.dest is not None:
            named[op.dest.name] = op
        elif op.is_store:
            named[f"store_{op.attrs['array']}"] = op
    return named


def test_mindist_from_start_is_nonnegative(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=2)
    for op in loop.ops:
        assert mindist.dist(loop.start.oid, op.oid) >= 0


def test_mindist_matches_hand_computation(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=2)
    named = _ops_by_name(loop)
    x_def, y_def = named["x"], named["y"]
    store_x = named["store_x"]
    # Cross arc x -> y has latency 1, omega 2: cost 1 - 2*2 = -3.
    assert mindist.dist(x_def.oid, y_def.oid) == -3
    assert mindist.dist(y_def.oid, x_def.oid) == -3
    # x -> store_x: latency 1.
    assert mindist.dist(x_def.oid, store_x.oid) == 1
    # Stop is at least one cycle after the last store completes.
    assert mindist.dist(x_def.oid, loop.stop.oid) == 2


def test_mindist_diagonal_is_zero(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=2)
    for op in loop.ops:
        assert mindist.dist(op.oid, op.oid) == 0


def test_no_path_returns_none(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=2)
    named = _ops_by_name(loop)
    # Nothing depends on a store, so there is no path store -> x.
    assert mindist.dist(named["store_x"].oid, named["x"].oid) is None
    assert not mindist.has_path(named["store_x"].oid, named["x"].oid)
    assert mindist.has_path(named["x"].oid, named["store_x"].oid)


def test_costs_shrink_as_ii_grows(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    named = _ops_by_name(loop)
    x_def, y_def = named["x"], named["y"]
    d2 = MinDist(ddg, ii=2).dist(x_def.oid, y_def.oid)
    d5 = MinDist(ddg, ii=5).dist(x_def.oid, y_def.oid)
    assert d5 < d2


def test_feasibility_predicate(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    # Figure 1's recurrences allow II = 1 (each circuit has slack).
    analysis = LoopAnalysis.of(ddg)
    assert analysis.closure(1)[1]
    assert analysis.closure(4)[1]


def test_mindist_rejects_nonpositive_ii(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    import pytest

    with pytest.raises(ValueError):
        MinDist(ddg, ii=0)


# ----------------------------------------------------------------------
# The shared no-path boundary (NO_PATH_CUTOFF) and the closure cache
# ----------------------------------------------------------------------
def test_no_path_cutoff_boundary_is_inclusive():
    # Regression: the framework's dependence test used strict ``>`` while
    # MinDist used ``>=`` against the cutoff, so an entry exactly at the
    # cutoff was a path to one and not the other.  Both now go through
    # the shared predicate, whose boundary is inclusive.
    import numpy as np

    from repro.bounds.mindist import NO_PATH, NO_PATH_CUTOFF, is_path, path_mask

    assert not is_path(NO_PATH)
    assert not is_path(NO_PATH_CUTOFF - 1)
    assert is_path(NO_PATH_CUTOFF)
    assert is_path(0) and is_path(-1) and is_path(7)
    entries = np.array([NO_PATH, NO_PATH_CUTOFF - 1, NO_PATH_CUTOFF, -1, 0, 9])
    assert path_mask(entries).tolist() == [is_path(int(e)) for e in entries]


def test_scalar_and_vector_path_predicates_agree_on_real_matrix(machine):
    from repro.bounds.mindist import path_mask

    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=2)
    mask = path_mask(mindist.matrix)
    for src in range(ddg.n):
        for dst in range(ddg.n):
            assert bool(mask[src, dst]) == mindist.has_path(src, dst)


def test_closure_cache_matches_fresh_computation(machine):
    # Escalated IIs against one DDG reuse the per-arc cost bases and the
    # per-II closure memo; each cached matrix must equal the matrix a
    # fresh graph computes from scratch, and stay read-only.
    loop = build_figure1_loop()
    for ii in (2, 3, 4, 7, 11):
        ddg = build_ddg(loop, machine)
        warm = MinDist(ddg, ii=2)  # prime the cache at another II first
        cached = MinDist(ddg, ii=ii).matrix
        fresh = MinDist(build_ddg(loop, machine), ii=ii).matrix
        assert (cached == fresh).all(), ii
        assert not cached.flags.writeable


def test_closure_cache_shares_matrix_per_ii(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    first = MinDist(ddg, ii=3)
    second = MinDist(ddg, ii=3)
    assert first.matrix is second.matrix  # memoized, not recomputed
