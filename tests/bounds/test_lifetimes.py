"""Unit tests for lifetime bounds, LiveVector and MaxLive (paper §3.2, §5.1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import (
    Lifetime,
    MinDist,
    gpr_count,
    live_vector,
    max_live,
    min_avg,
    min_lifetime,
    rr_max_live,
    rr_values,
    schedule_lifetimes,
)
from repro.ir import DType, build_ddg

from tests.conftest import build_divider_loop, build_figure1_loop


def test_figure4_live_vector():
    """The paper's Figure 4: x in [0,5), y in [1,4), II=2 -> <4, 4>."""
    x = Lifetime(value=None, start=0, end=5)
    y = Lifetime(value=None, start=1, end=4)
    assert live_vector([x, y], ii=2) == [4, 4]
    assert max_live([x, y], ii=2) == 4


def test_live_vector_short_lifetime():
    lifetime = Lifetime(value=None, start=3, end=5)
    assert live_vector([lifetime], ii=4) == [1, 0, 0, 1]


def test_live_vector_ignores_empty_lifetimes():
    assert live_vector([Lifetime(value=None, start=2, end=2)], ii=3) == [0, 0, 0]


@given(
    st.integers(min_value=1, max_value=30),
    st.lists(
        st.tuples(
            st.integers(min_value=-60, max_value=60),
            st.integers(min_value=-5, max_value=4),  # whole turns (<= 0: empty)
            st.integers(min_value=0, max_value=29),  # extra cycles
        ),
        max_size=12,
    ),
)
@settings(max_examples=200, deadline=None)
def test_live_vector_counts_every_live_cycle(ii, shapes):
    # Negative starts, empty lifetimes and lengths that are multiples of
    # II, against a count of one live cycle at a time.
    lifetimes = [
        Lifetime(value=None, start=start, end=start + turns * ii + extra)
        for start, turns, extra in shapes
    ]
    columns = [0] * ii
    for lifetime in lifetimes:
        for cycle in range(lifetime.start, lifetime.end):
            columns[cycle % ii] += 1
    assert live_vector(lifetimes, ii) == columns


def test_max_live_empty():
    assert max_live([], ii=4) == 0


def test_minlt_figure1(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=2)
    x = next(v for v in loop.values if v.name == "x")
    # Self use at omega=1 binds: 1*2 + 0 = 2.  The omega=2 use by y's def
    # contributes 2*2 + MinDist(x, y) = 4 - 3 = 1; the store adds 1.
    assert min_lifetime(x, ddg, mindist, ii=2) == 2


def test_minlt_includes_load_latency(machine):
    loop = build_divider_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=17)
    xv = next(v for v in loop.values if v.name == "x")
    # x's only use is the divide, no earlier than 13 cycles after the load.
    assert min_lifetime(xv, ddg, mindist, ii=17) == 13


def test_min_avg_figure1(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    mindist = MinDist(ddg, ii=2)
    # x, y, ax, ay each have MinLT 2 at II=2: sum(ceil(2/2)) = 4,
    # matching the paper's note that an optimal allocation of Figure 3
    # uses four rotating registers for the data values.
    assert min_avg(loop, ddg, mindist, ii=2) == 4


def test_schedule_lifetimes_and_maxlive(machine):
    loop = build_figure1_loop()
    ddg = build_ddg(loop, machine)
    named = {}
    for op in loop.real_ops:
        key = op.dest.name if op.dest is not None else f"store_{op.attrs.get('array')}"
        named[key] = op
    # Reproduce Figure 3's naive schedule: x defined at 0, y at 1,
    # stores right after their defs, addresses at 0.
    times = {
        loop.start.oid: 0,
        named["ax"].oid: 0,
        named["ay"].oid: 1,
        named["x"].oid: 0,
        named["y"].oid: 1,
        named["store_x"].oid: 1,
        named["store_y"].oid: 2,
        loop.brtop().oid: 0,
        loop.stop.oid: 4,
    }
    lifetimes = {
        lt.value.name: (lt.start, lt.end)
        for lt in schedule_lifetimes(loop, ddg, times, ii=2)
    }
    # x: defined at 0; last use is y's def two iterations later: 1 + 2*2 = 5.
    assert lifetimes["x"] == (0, 5)
    # y: defined at 1; last use is x's def two iterations later: 0 + 4 = 4.
    assert lifetimes["y"] == (1, 4)
    assert rr_max_live(loop, ddg, times, ii=2) >= 4


def test_rr_values_excludes_predicates_and_invariants(machine):
    loop = build_divider_loop()
    names = {v.name for v in rr_values(loop)}
    assert "c" not in names  # invariant -> GPR
    assert "x" in names and "q" in names and "ax" in names


def test_gpr_count(machine):
    loop = build_divider_loop()
    assert gpr_count(loop) == 1  # the invariant divisor c
