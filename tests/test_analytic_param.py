"""Analytic delta-parametrization: dyadic partitions (distance invariant and
logarithmic budget, strips removed only about singular points within delta
of the real axis), affine a-charts against closed-form disk maxima, and the
chart-count law."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothparam.analytic_param import (_a_chart_for_interval,
                                        analytic_delta_parametrize,
                                        dyadic_partition,
                                        hyperbola_analytic_charts,
                                        verify_a_chart_variation)
from smoothparam.bivar import BivarPoly
from smoothparam.errors import PreconditionFailed, SingularityInsideDisk
from smoothparam.funcs import BranchExpr, RationalExpr, SqrtExpr
from smoothparam.poly import Poly

def test_partition_single_singularity_delta_sixteenth():
    part = dyadic_partition((F(-1), F(1)), [0j], F(1, 16))
    assert part.removed == [(F(-1, 16), F(1, 16))]
    worst, count, budget = part.check_invariants()
    assert worst >= 3 - 1e-6
    assert count <= budget          # budget = 2*(1+1)*log2(16) = 16
    # kept intervals tile both gaps exactly
    left = sorted(iv for iv in part.kept if iv[1] <= 0)
    right = sorted(iv for iv in part.kept if iv[0] >= 0)
    assert left[0][0] == F(-1) and left[-1][1] == F(-1, 16)
    assert right[0][0] == F(1, 16) and right[-1][1] == F(1)
    for ivs in (left, right):
        for (a1, b1), (a2, b2) in zip(ivs, ivs[1:]):
            assert b1 == a2


def test_partition_no_singularities():
    part = dyadic_partition((F(-1), F(1)), [], F(1, 16))
    assert part.removed == []
    worst, count, budget = part.check_invariants()
    assert math.isinf(worst)
    assert count <= 2 * math.log2(16)
    assert sorted(part.kept)[0][0] == F(-1)
    assert sorted(part.kept)[-1][1] == F(1)


def test_partition_random_instances():
    rng = random.Random(29)
    for _ in range(60):
        m = rng.randint(1, 3)
        sings = [complex(rng.uniform(-1, 1), 0) for _ in range(m)]
        delta = F(1, 2 ** rng.randint(4, 10))
        part = dyadic_partition((F(-1), F(1)), sings, delta)
        worst, count, budget = part.check_invariants()
        assert worst >= 3 - 1e-6
        assert count <= budget
        # kept intervals are disjoint and avoid every removed interval
        kept = sorted(part.kept)
        for (a1, b1), (a2, b2) in zip(kept, kept[1:]):
            assert b1 <= a2
        for a, b in kept:
            for lo, hi in part.removed:
                assert b <= lo or a >= hi


_PARTS = st.floats(-1.5, 1.5).map(lambda v: round(v, 3))
_SINGS = st.lists(st.builds(complex, _PARTS, st.one_of(st.just(0.0), _PARTS)),
                  max_size=4)


@given(_SINGS, st.integers(4, 4096))
def test_partition_keeps_the_ratio_and_the_budget(sings, n):
    # singular points on, near and off the real axis: a strip is removed
    # exactly about those within delta of it, and the cover keeps every
    # kept interval three half-lengths from every singular point within
    # the budget 2 (m + 1) log2(1/delta).  The budget bounds small delta:
    # above 1/4 a point just beyond delta can take more (6 charts against
    # 4 at delta 1/2 with the point at 0.5i), and near 1 it is below the 2
    # charts of any cover
    delta = F(1, n)
    part = dyadic_partition((F(-1), F(1)), sings, delta)
    worst, count, budget = part.check_invariants()
    assert worst >= 3 - 1e-6
    assert count <= budget
    near = [z.real for z in sings if abs(z.imag) < delta
            and -1 - delta < z.real < 1 + delta]
    assert bool(part.removed) == bool(near)
    for end in (e for iv in part.removed for e in iv if abs(e) != 1):
        assert min(abs(float(end) - x) for x in near) <= float(delta) + 1e-12


def _odd_part(n):
    return n >> ((n & -n).bit_length() - 1)


@pytest.mark.parametrize("j", [4, 12, 30, 60, 200])
def test_partition_ends_keep_the_gap_denominators(j):
    # each step length is a float, a dyadic rational, so a chart end's
    # denominator is the gap ends' times a power of 2 (at most 2^1075: a
    # float's and the midpoint's), however many charts the cover takes
    interval = (F(-5, 3), F(7, 9))
    sings = [0j, complex(-1 / 3, 1e-3), complex(0.4, -0.25)]
    part = dyadic_partition(interval, sings, F(1, 2 ** j))
    ends = {interval[0], interval[1], *(x for iv in part.removed for x in iv)}
    base = math.lcm(*(x.denominator for x in ends))
    assert len(part.kept) >= 4 * j // 3
    for a, b in part.kept:
        for x in (a, b):
            assert _odd_part(base) % _odd_part(x.denominator) == 0
            assert x.denominator.bit_length() <= base.bit_length() + 1100


def test_partition_rejects_bad_delta():
    with pytest.raises(PreconditionFailed, match="delta must lie in"):
        dyadic_partition((F(-1), F(1)), [0j], F(1))
    with pytest.raises(PreconditionFailed, match="delta must lie in"):
        dyadic_partition((F(-1), F(1)), [0j], F(0))


def test_partition_keeps_a_removal_that_covers_the_interval():
    part = dyadic_partition((F(-1, 8), F(1, 8)), [0j], F(1, 4))
    assert part.kept == [] and part.removed == [(F(-1, 8), F(1, 8))]


def test_affine_function_unit_charts_without_refinement():
    f = RationalExpr(Poly([0, F(1, 4)]))     # x/4 on [-1, 1], no singularities
    P = analytic_delta_parametrize(f, F(1, 16), (F(-1), F(1)),
                                   declared_singularities=[], normalize=False)
    assert P.chart_count == 2
    for ch in P.charts:                      # already unit: nothing to split
        assert verify_a_chart_variation(ch) <= 1 + 1e-9


def test_hyperbola_chart_K_matches_closed_form():
    e = F(1, 10)
    P = hyperbola_analytic_charts(e, F(1, 16))
    assert P.chart_count >= 1
    for ch in P.charts:
        c = abs(ch.meta["disk_center"])
        r = ch.meta["disk_radius"]
        # max of |eps^2/z| over the disk sits at the point nearest the pole
        closed = float(e) ** 2 / (c - r)
        assert abs(ch.meta["K"] - closed) <= 1e-12 * closed


def test_sqrt_branch_disk_bound_matches_closed_form():
    f = SqrtExpr(RationalExpr(Poly([0, 1])))
    ch = _a_chart_for_interval(f, F(1, 4), F(1, 2), [0j])
    # max |sqrt(z)| over the disk about c of radius r is sqrt(c + r)
    closed = math.sqrt(3 / 8 + 1 / 4)
    assert abs(ch.meta["K"] - closed) <= 1e-6


def test_bare_branch_kvar_adds_the_value_at_the_disk_center(cheap_circles):
    # the upper branch of y^2 = x^3 + x/2 + 15/4; its singular points lie
    # over x = -1.45 and 0.72 +- 1.44i, far from the disk about 11/8
    P = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): F(-1, 2), (0, 0): F(-15, 4)})
    f = BranchExpr(P, (1.0, math.sqrt(1 + 0.5 + 3.75)))
    ch = _a_chart_for_interval(f, F(5, 4), F(3, 2), f.tracker.singularities)
    center = ch.meta["disk_center"]
    assert center == 1.375
    assert ch.meta["Kvar"] == ch.meta["K"] + abs(f.eval_complex(center))


def test_singularity_inside_protected_disk_raises():
    g = RationalExpr(Poly([1]), Poly([0, 1]))
    with pytest.raises(SingularityInsideDisk):
        _a_chart_for_interval(g, F(-1), F(1), [0j])


def test_hyperbola_chart_count_law(cheap_circles):
    # chart count against log2(1/delta): linear with R^2 >= 0.99
    e = F(1, 2 ** 26)
    xs, ys = [], []
    for j in range(4, 15, 2):
        P = hyperbola_analytic_charts(e, F(1, 2 ** j))
        xs.append(float(j))
        ys.append(float(P.chart_count))
    xs, ys = np.array(xs), np.array(ys)
    slope, icpt = np.polyfit(xs, ys, 1)
    pred = slope * xs + icpt
    ss_res = float(np.sum((ys - pred) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    assert 1 - ss_res / ss_tot >= 0.99
    assert slope > 0
