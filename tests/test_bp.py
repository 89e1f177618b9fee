"""Determinant-method layer: combinatorial tables, the interpolation
determinant bound on random smooth maps, exact point enumeration against a
brute-force oracle and against each curve's defining integer polynomial,
and the hypersurface ball cover."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothparam.bivar import BivarPoly
from smoothparam.bp import (D_table, L_table, _eval_exact, _fr,
                            bp_combinatorics, bp_for_degree,
                            brute_force_points, brute_force_sweep,
                            enumerate_points, hypersurface_cover,
                            on_hypersurface, vandermonde_bound_check)
from smoothparam.errors import EvaluationAtSingularity, PreconditionFailed
from smoothparam.funcs import (AddExpr, MulExpr, PowExpr, RationalExpr,
                               SqrtExpr)
from smoothparam.poly import Poly


def test_dimension_tables():
    assert [D_table(1, l) for l in range(5)] == [1, 2, 3, 4, 5]
    assert [D_table(2, l) for l in range(5)] == [1, 3, 6, 10, 15]
    assert [L_table(1, l) for l in range(5)] == [1, 1, 1, 1, 1]
    assert [L_table(2, l) for l in range(5)] == [1, 2, 3, 4, 5]
    for s in (1, 2, 3):
        for l in range(6):
            assert D_table(s, l) == sum(L_table(s, j) for j in range(l + 1))


def test_combinatorics_basic_rows():
    c = bp_combinatorics(1, 3)
    assert (c.k, c.e) == (2, 3)
    c = bp_combinatorics(1, 6)
    assert (c.k, c.e) == (5, 15)
    c = bp_combinatorics(2, 6)
    assert (c.k, c.e) == (2, 8)           # D_2(2) = 6 <= 6 < D_2(3) = 10
    assert D_table(2, c.k) <= 6 < D_table(2, c.k + 1)


def test_epsilon_exponents_printed_and_truncated():
    printed = [bp_for_degree(1, 2, d).epsilon_exponent("as_printed")
               for d in range(1, 7)]
    assert printed == [F(2), F(7, 5), F(11, 9), F(8, 7), F(11, 10), F(29, 27)]
    assert all(a > b for a, b in zip(printed, printed[1:]))
    for d in range(1, 7):
        c = bp_for_degree(1, 2, d)
        # with one parameter the truncated variant telescopes to exactly 1
        assert c.epsilon_exponent("truncated_at_k") == 1


def test_vandermonde_bound_random_1d():
    rng = random.Random(41)
    for _ in range(100):
        m = rng.randint(2, 5)
        phi = [RationalExpr(Poly([F(rng.randint(-3, 3), rng.randint(1, 3))
                                  for _ in range(rng.randint(1, 4))]))
               for _ in range(m)]
        r = rng.choice([0.5, 0.1, 0.02])
        c = rng.uniform(-1 + r, 1 - r)
        pts = [c + rng.uniform(-r, r) for _ in range(m)]
        res = vandermonde_bound_check(phi, pts, r, n=1)
        assert res["pass"], res


def test_vandermonde_bound_random_2d():
    rng = random.Random(43)
    for _ in range(10):
        m = rng.randint(2, 3)
        phi = [BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                          F(rng.randint(-2, 2)) for _ in range(3)})
               for _ in range(m)]
        r = 0.1
        pts = [(rng.uniform(-r, r), rng.uniform(-r, r)) for _ in range(m)]
        res = vandermonde_bound_check(phi, pts, r, n=2)
        assert res["pass"], res


def test_enumerate_x_squared_t10():
    f = RationalExpr(Poly([0, 0, 1]))
    pts = enumerate_points(f, (F(0), F(1)), 10)
    assert set(pts) == {(F(0), F(0)), (F(1), F(1))}


def test_enumerate_matches_brute_force():
    rng = random.Random(47)
    cubic = RationalExpr(Poly([0, 0, 0, 1]))
    ratf = RationalExpr(Poly([1, 0, -1]), Poly([2, 0, 1]))
    for f in (cubic, ratf):
        for _ in range(12):
            t = rng.randint(1, 200)
            a = enumerate_points(f, (F(-1), F(1)), t)
            b = brute_force_points(f, (F(-1), F(1)), t)
            assert set(a) == set(b)


# An oracle independent of bp._eval_exact: each curve is given by its
# defining integer polynomial, and (a/t, b/t) is tested on it in integers.
# On y = n(x)/d(x), with D the larger degree, (a/t, b/t) is a point iff
# b * sum d_i a^i t^(D-i) == t * sum n_i a^i t^(D-i) (the equation times
# t^(D+1)); on y = x sqrt(x) it is a point iff b^2 t == a^3 and b >= 0.
# b ranges over the integers within 1 of t * y(a/t) in floats.

def _on_graph(num, den=(1,)):
    D = max(len(num), len(den)) - 1

    def scaled(cs, a, t):
        return sum(c * a ** i * t ** (D - i) for i, c in enumerate(cs))
    return lambda a, b, t: b * scaled(den, a, t) == t * scaled(num, a, t)


def _oracle_points(y, on_curve, dom, t):
    out = set()
    for a in range(math.ceil(dom[0] * t), math.floor(dom[1] * t) + 1):
        ty = t * y(a / t)
        for b in range(math.floor(ty) - 1, math.ceil(ty) + 2):
            if on_curve(a, b, t):
                out.add((F(a, t), F(b, t)))
    return out


def test_enumerate_matches_the_defining_polynomials():
    # the curves of acceptance 7, every t <= 200
    x = RationalExpr(Poly([0, 1]))
    curves = [
        (RationalExpr(Poly([0, 0, 1])), (F(-1), F(1)),
         lambda v: v * v, _on_graph((0, 0, 1))),
        (RationalExpr(Poly([0, 0, 0, 1])), (F(-1), F(1)),
         lambda v: v ** 3, _on_graph((0, 0, 0, 1))),
        (RationalExpr(Poly([1, 0, -1]), Poly([2, 0, 1])), (F(-1), F(1)),
         lambda v: (1 - v * v) / (2 + v * v), _on_graph((1, 0, -1), (2, 0, 1))),
        (MulExpr(x, SqrtExpr(x)), (F(0), F(1)),
         lambda v: v ** 1.5, lambda a, b, t: b >= 0 and b * b * t == a ** 3)]
    total = 0
    for f, dom, y, on_curve in curves:
        for t in range(1, 201):
            want = _oracle_points(y, on_curve, dom, t)
            assert set(enumerate_points(f, dom, t)) == want, (f, t)
            total += len(want)
    assert total > 4 * 200 * 2          # not vacuous: both ends are points


def test_enumerate_sqrt_curve():
    # x^(3/2) on [0, 1] at t = 8: rational values only above rational squares
    x = RationalExpr(Poly([0, 1]))
    f = MulExpr(x, SqrtExpr(x))
    pts = enumerate_points(f, (F(0), F(1)), 8)
    assert set(pts) == {(F(0), F(0)), (F(1, 4), F(1, 8)), (F(1), F(1))}


# The integer enumerator against the Fraction oracle on random expression
# trees.  Sqrt of a square and x times sqrt(x) make rational radicands and
# points off the integers common; a negative constant denominator makes the
# integer pairs' q negative.

_coef = st.builds(F, st.integers(-3, 3), st.sampled_from([1, 1, 2]))
_poly = st.lists(_coef, min_size=1, max_size=5).map(Poly)
_leaves = st.one_of(
    st.builds(RationalExpr, _poly),
    st.builds(RationalExpr, _poly,
              _poly.map(lambda p: Poly([-1]) if p.is_zero() else p)),
    _coef.map(lambda c: RationalExpr(Poly([c]))))
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.builds(SqrtExpr, kids),
    kids.map(lambda e: SqrtExpr(MulExpr(e, e))),
    kids.map(lambda e: MulExpr(e, SqrtExpr(e))),
    st.builds(MulExpr, kids, kids),
    st.lists(kids, min_size=1, max_size=3).map(lambda ts: AddExpr(*ts)),
    st.builds(PowExpr, kids, st.integers(-2, 3))), max_leaves=4)
_ends = st.fractions(min_value=-2, max_value=2, max_denominator=4)


def _points_or_error(enum, f, interval, t):
    try:
        return enum(f, interval, t)
    except Exception as exc:        # pole, negative radicand, undecidable
        return type(exc)


@settings(max_examples=150)
@given(f=_trees, t=st.integers(1, 300), ends=st.tuples(_ends, _ends))
@example(f=SqrtExpr(RationalExpr(Poly([0, 1]))), t=8, ends=(F(0), F(1)))
@example(f=SqrtExpr(RationalExpr(Poly([F(-1, 4)]), Poly([-1]))), t=4,
         ends=(F(-1), F(1)))
@example(f=MulExpr(RationalExpr(Poly([0, 1])),
                   SqrtExpr(RationalExpr(Poly([0, 1])))),
         t=8, ends=(F(0), F(1)))
# a sum with one irrational term is irrational; with two, undecidable
@example(f=AddExpr(SqrtExpr(RationalExpr(Poly([0, 1]))),
                   RationalExpr(Poly([1]))),
         t=4, ends=(F(0), F(1)))
@example(f=AddExpr(SqrtExpr(RationalExpr(Poly([0, 1]))),
                   SqrtExpr(RationalExpr(Poly([0, 2])))),
         t=4, ends=(F(0), F(1)))
# a rational 0 times an irrational, on either side, is the rational 0
@example(f=MulExpr(RationalExpr(Poly([-1, 2])),
                   SqrtExpr(RationalExpr(Poly([0, 1])))),
         t=2, ends=(F(0), F(1)))
@example(f=MulExpr(SqrtExpr(RationalExpr(Poly([0, 1]))),
                   RationalExpr(Poly([-1, 2]))),
         t=2, ends=(F(0), F(1)))
def test_integer_enumerator_matches_the_fraction_oracle(f, t, ends):
    interval = tuple(sorted(ends))
    got = _points_or_error(enumerate_points, f, interval, t)
    want = _points_or_error(brute_force_points, f, interval, t)
    assert got == want


def _window_points(f, interval, t):
    """The y-window loop: (a/t, b/t) for the b within 1 of t * f(a/t) with
    Fraction(b, t) == f(a/t)."""
    out = []
    for a in range(math.ceil(_fr(interval[0]) * t),
                   math.floor(_fr(interval[1]) * t) + 1):
        x = F(a, t)
        kind, y = _eval_exact(f, x)
        if kind != "rational":
            continue
        num = y * t
        for b in range(math.floor(num) - 1, math.ceil(num) + 2):
            if F(b, t) == y:
                out.append((x, y))
                break
    return out


@settings(max_examples=150)
@given(f=_trees, t=st.integers(1, 300), ends=st.tuples(_ends, _ends))
@example(f=RationalExpr(Poly([3])), t=5, ends=(F(0), F(1)))  # an integer value
def test_brute_force_denominator_rule_matches_the_window_loop(f, t, ends):
    interval = tuple(sorted(ends))
    assert _points_or_error(brute_force_points, f, interval, t) == \
        _points_or_error(_window_points, f, interval, t)


def _drive(f, interval, T, row):
    """The rows t = 1..T as `count-points --csv` takes them: enumerate_points
    at t, then row(t).  (rows, None), or (rows so far, (t, error class,
    message)) at the first error."""
    rows = []
    for t in range(1, T + 1):
        try:
            enumerate_points(f, interval, t)
            rows.append(row(t))
        except Exception as exc:    # pole, negative radicand, undecidable
            return rows, (t, type(exc), str(exc))
    return rows, None


@settings(max_examples=150, deadline=None)
@given(f=_trees, T=st.integers(1, 40), ends=st.tuples(_ends, _ends))
@example(f=RationalExpr(Poly([3])), T=6, ends=(F(0), F(1)))
@example(f=MulExpr(RationalExpr(Poly([0, 1])),
                   SqrtExpr(RationalExpr(Poly([0, 1])))),
         T=36, ends=(F(0), F(1)))
@example(f=RationalExpr(Poly([1]), Poly([-1, 3])), T=7, ends=(F(0), F(1)))
def test_sweep_rows_are_the_per_t_oracle_rows(f, T, ends):
    interval = tuple(sorted(ends))
    sweep = brute_force_sweep(f, interval, T)
    assert _drive(f, interval, T, lambda t: next(sweep)) == \
        _drive(f, interval, T,
               lambda t: set(brute_force_points(f, interval, t)))


def test_sweep_caps_its_candidates_before_evaluating():
    # on [-1, 1] the rows to T hold T^2 + 2T candidates; 1/x has a pole
    # at x = 0, the first candidate, so only a check made first can name
    # the cap
    f = RationalExpr(Poly([1]), Poly([0, 1]))
    with pytest.raises(PreconditionFailed, match="ENUMERATE_CAP"):
        next(brute_force_sweep(f, (F(-1), F(1)), 1000))
    with pytest.raises(EvaluationAtSingularity, match="pole at 0"):
        next(brute_force_sweep(f, (F(-1), F(1)), 999))


def test_t_and_d_below_one_are_precondition_failures():
    f = RationalExpr(Poly([0, 0, 0, 1]))
    for t in (0, -3):
        for call in (enumerate_points, brute_force_points,
                     lambda *a: next(brute_force_sweep(*a))):
            with pytest.raises(PreconditionFailed, match="t must be"):
                call(f, (F(-1), F(1)), t)
        with pytest.raises(PreconditionFailed, match="t must be"):
            hypersurface_cover(f, (F(-1), F(1)), t, 2)
    for d in (0, -1, 17):
        with pytest.raises(PreconditionFailed, match="d must be"):
            hypersurface_cover(f, (F(-1), F(1)), 10, d)


def test_on_hypersurface_rank_cases():
    parab = [(F(i), F(i) ** 2) for i in range(-3, 4)]
    assert on_hypersurface(parab, 2)
    assert not on_hypersurface(parab, 1)       # 7 points, not collinear
    line = [(F(i), 2 * F(i) + 1) for i in range(5)]
    assert on_hypersurface(line, 1)
    rng = random.Random(53)
    generic = [(F(rng.randint(-9, 9), 7), F(rng.randint(-9, 9), 5))
               for _ in range(8)]
    assert not on_hypersurface(generic, 2)     # 8 generic points, tau = 6


def test_hypersurface_cover_cubic():
    f = RationalExpr(Poly([0, 0, 0, 1]))
    for t in (10, 50, 100):
        cov = hypersurface_cover(f, (F(-1), F(1)), t, 2)
        assert all(v["pass"] for v in cov["per_ball"].values())
        assert cov["occupied_balls"] <= cov["ball_count"]
        assert cov["hypersurface_count"] == cov["occupied_balls"]
        assert cov["ball_count"] <= math.ceil(2.0 / cov["rtil"]) + 1
    cov = hypersurface_cover(f, (F(-1), F(1)), 100, 2)
    assert cov["points"] == 3                  # x in {-1, 0, 1} only
    assert cov["occupied_balls"] == 3


def test_cover_exponent_metadata():
    f = RationalExpr(Poly([0, 0, 0, 1]))
    cov = hypersurface_cover(f, (F(-1), F(1)), 10, 2)
    assert cov["tau"] == 6 and cov["k"] == 5 and cov["e"] == 15
    assert cov["epsilon_printed"] == F(7, 5)
    assert cov["epsilon_truncated"] == F(1)
