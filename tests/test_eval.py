"""The one numeric evaluator: `eval_array` on complex arrays against a
per-point Python-complex oracle (the recursion each expression class once
carried as its own `eval_complex`), `eval` as its one-point real case,
`circle_sup` against the per-circle loop it replaced, and fail-closed
sampling at a pole."""

import math
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smoothparam.analytic_param import (hyperbola_analytic_charts,
                                        verify_a_chart_variation)
from smoothparam.bivar import BivarPoly
from smoothparam import charts
from smoothparam.charts import circle_sup
from smoothparam.errors import EvaluationAtSingularity, OrderOverflow
from smoothparam.funcs import (AddExpr, BlackboxExpr, BranchExpr, ComposeExpr,
                               MulExpr, PowExpr, RationalExpr, SqrtExpr,
                               _wrap, scale_shift, simplify)
from smoothparam.poly import Poly
from smoothparam.serialize import expr_from_json

U = 2.0 ** -53          # unit roundoff


def oracle(e, z):
    """e(z) by per-point Python complex arithmetic, node by node."""
    if isinstance(e, RationalExpr):
        return complex(e.num(z)) / complex(e.den(z))
    if isinstance(e, SqrtExpr):
        return complex(oracle(e.inner, z)) ** 0.5
    if isinstance(e, AddExpr):
        return sum(oracle(t, z) for t in e.terms)
    if isinstance(e, MulExpr):
        return oracle(e.f, z) * oracle(e.g, z)
    if isinstance(e, PowExpr):
        return complex(oracle(e.f, z)) ** e.n
    if isinstance(e, ComposeExpr):
        return oracle(e.outer, oracle(e.inner, z))
    raise TypeError(type(e))


def rounding_scale(e, z, dz=0.0):
    """(e(z), E): a first-order bound E, in units of U, on how far two
    float evaluations of e can drift apart when its input already carries
    dz units of error.  E is inf where a pole or a sqrt branch cut lies
    within that drift."""
    if isinstance(e, RationalExpr):
        parts = []
        for p in (e.num, e.den):
            mag = sum(abs(float(c)) * abs(z) ** i for i, c in enumerate(p.coeffs))
            slope = abs(complex(p.deriv()(z))) if p.degree > 0 else 0.0
            parts.append((complex(p(z)),
                          4 * (p.degree + 1) * mag + slope * dz))
        (n, en), (d, ed) = parts
        if abs(d) <= 10 * U * ed or d == 0:
            return math.nan, math.inf
        v = n / d
        return v, (en + abs(v) * ed) / abs(d) + 8 * abs(v)
    if isinstance(e, SqrtExpr):
        f, ef = rounding_scale(e.inner, z, dz)
        near_cut = f.real < 0 and abs(f.imag) <= 10 * U * ef
        if abs(f) <= 10 * U * ef or near_cut:
            return math.nan, math.inf
        v = f ** 0.5
        return v, abs(v) * (ef / (2 * abs(f)) + 4)
    if isinstance(e, AddExpr):
        vals = [rounding_scale(t, z, dz) for t in e.terms]
        v = sum(t for t, _ in vals)
        return v, (sum(et for _, et in vals)
                   + len(vals) * sum(abs(t) for t, _ in vals))
    if isinstance(e, MulExpr):
        (f, ef), (g, eg) = rounding_scale(e.f, z, dz), rounding_scale(e.g, z, dz)
        v = f * g
        return v, ef * abs(g) + abs(f) * eg + 4 * abs(v)
    if isinstance(e, PowExpr):
        f, ef = rounding_scale(e.f, z, dz)
        if e.n == 0:
            return 1 + 0j, 0.0
        if f == 0 or abs(f) <= 10 * U * ef:
            return math.nan, math.inf
        v = f ** e.n
        return v, abs(v) * (abs(e.n) * ef / abs(f) + 8 * (abs(e.n) + 1))
    if isinstance(e, ComposeExpr):
        w, ew = rounding_scale(e.inner, z, dz)
        if not math.isfinite(ew):
            return math.nan, math.inf
        return rounding_scale(e.outer, w, ew)
    raise TypeError(type(e))


_coef = st.integers(-6, 6).map(lambda n: F(n, 2))
_poly = st.lists(_coef, min_size=1, max_size=4).map(Poly)
_leaves = st.one_of(
    st.builds(RationalExpr, _poly,
              _poly.map(lambda p: Poly([1]) if p.is_zero() else p)),
    _coef.map(lambda c: RationalExpr(Poly([c]))))
trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.builds(SqrtExpr, kids),
    st.builds(AddExpr, kids, kids),
    st.builds(MulExpr, kids, kids),
    st.builds(PowExpr, kids, st.integers(-3, 3)),
    st.builds(ComposeExpr, kids, kids)), max_leaves=6)
points = st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                     allow_infinity=False),
                  min_size=1, max_size=8)


def _oracle_and_scale(e, z):
    """(oracle value, rounding scale), or (nan, inf) where the oracle
    divides by zero or overflows."""
    try:
        return complex(oracle(e, z)), rounding_scale(e, z)[1]
    except (ZeroDivisionError, OverflowError):
        return complex(math.nan, math.nan), math.inf


@settings(max_examples=300)
@given(trees, points)
def test_eval_array_matches_the_per_point_oracle(e, zs):
    zs = np.array(zs, dtype=complex)
    with np.errstate(all="ignore"):
        got = e.eval_array(zs)
    assert got.shape == zs.shape and np.iscomplexobj(got)
    want, scale = map(np.array, zip(*(_oracle_and_scale(e, z)
                                      for z in zs.tolist())))
    # wherever the oracle is finite and rounding cannot move it by more
    # than 1e-13 relative, the array evaluator agrees to 1e-12 relative
    ok = np.isfinite(want) & (scale * U <= 1e-13 * np.abs(want))
    assume(ok.any())
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-12 * np.abs(want[ok]))


@settings(max_examples=300)
@given(_poly, _poly.filter(lambda p: not p.is_zero()),
       st.floats(-4, 4, allow_subnormal=False))
def test_rational_eval_is_poly_call_at_a_float_and_exact_at_a_fraction(
        num, den, x):
    f = RationalExpr(num, den)
    for pt in (x, F(x)):        # Poly.__call__ is exact at a Fraction
        dv = den(pt)
        if dv == 0:
            with pytest.raises(EvaluationAtSingularity):
                f.eval(pt)
            continue
        got, want = f.eval(pt), num(pt) / dv
        assert type(got) is type(want)
        assert (got.hex() == want.hex() if isinstance(pt, float)
                else got == want)


def _power_sum(p, x):
    return sum((c * F(x) ** j for j, c in enumerate(p.coeffs)), F(0))


@settings(max_examples=300)
@given(_poly, _poly.filter(lambda p: not p.is_zero()),
       st.one_of(st.integers(-10**30, 10**30),
                 st.builds(F, st.integers(-10**30, 10**30),
                           st.integers(1, 10**30))),
       st.builds(F, st.integers(-20, 20), st.integers(1, 20)))
def test_rational_eval_at_a_fraction_is_the_quotient_of_power_sums(
        num, den, x, r):
    f = RationalExpr(num, den)
    dv = _power_sum(den, x)
    if dv == 0:
        with pytest.raises(EvaluationAtSingularity):
            f.eval(x)
    else:
        got = f.eval(x)
        assert type(got) is F and got == _power_sum(num, x) / dv
    # r is a root of den (x - r): a pole, whatever num is there
    with pytest.raises(EvaluationAtSingularity,
                       match=re.escape(f"pole at {r}")):
        RationalExpr(num, den * Poly([-r, 1])).eval(r)


@pytest.mark.parametrize("f, x", [
    (SqrtExpr(RationalExpr(Poly([-1, 1]))), 0.5),          # sqrt(-1/2)
    # 1/(x - 1/2), at a float and at a Fraction: not rational as a tree
    (ComposeExpr(RationalExpr(Poly([1]), Poly([0, 1])),
                 RationalExpr(Poly([F(-1, 2), 1]))), 0.5),
    (ComposeExpr(RationalExpr(Poly([1]), Poly([0, 1])),
                 RationalExpr(Poly([F(-1, 2), 1]))), F(1, 2)),
    (PowExpr(RationalExpr(Poly([0, 1])), 400), 10.0),       # overflows
])
def test_eval_fails_closed_at_a_non_finite_value(f, x):
    # a NaN, an inf or an overflow is never returned; the message names x
    with pytest.raises(EvaluationAtSingularity, match=re.escape(f"x = {x}")):
        f.eval(x)


def test_blackbox_eval_array_keeps_shape_and_takes_complex():
    f = BlackboxExpr(lambda x: x * x + 1, 2)
    xs = np.linspace(0.0, 1.0, 6).reshape(2, 3)
    assert f.eval_array(xs).shape == (2, 3)
    assert np.array_equal(f.eval_array(xs).ravel(),
                          [float(x) ** 2 + 1 for x in xs.ravel()])
    assert f.eval_complex(1j) == 0j


def test_blackbox_derivatives_stop_at_the_declared_ones():
    # no difference quotient past deriv_fns: the order is named instead
    f = BlackboxExpr(math.exp, 0, deriv_fns=[math.exp])
    assert f.deriv().eval(0.5) == math.exp(0.5)
    with pytest.raises(OrderOverflow, match="order 2 was asked"):
        f.deriv().deriv()
    with pytest.raises(OrderOverflow, match="order 1 was asked"):
        BlackboxExpr(math.exp, 0).derivative_chain(2)


def circle_sup_loop(value, center, radius, tracker=None):
    """The per-circle, per-point circle sample circle_sup replaced; with a
    tracker, the branch is continued along each circle from center + r and
    value(z, w) maps the branch value w at z."""
    angles = np.linspace(0.0, 2 * math.pi, charts.CIRCLE_ANGLES,
                         endpoint=False)
    worst = 0.0
    for j in range(1, charts.CIRCLE_RADII + 1):
        r = radius * j / charts.CIRCLE_RADII
        zs = [center + r * complex(math.cos(t), math.sin(t)) for t in angles]
        vals = ([value(z) for z in zs] if tracker is None
                else [value(z, w) for z, w in
                      zip(zs, tracker.eval_path([center + r] + zs)[1:])])
        mags = [abs(complex(v)) for v in vals]
        if not all(map(math.isfinite, mags)):
            raise EvaluationAtSingularity(f"radius {r}")
        worst = max([worst, *mags])
    return worst


def test_circle_sup_equals_the_per_circle_loop_on_hyperbola_charts():
    P = hyperbola_analytic_charts(F(1, 100000), F(1, 2048))
    assert P.chart_count == 12
    for ch in P.charts:
        f = ch.f_comp
        f0 = oracle(f, 0j)
        var = circle_sup_loop(lambda z: oracle(f, z) - f0, 0j, 2.0)
        assert verify_a_chart_variation(ch) == var
        assert circle_sup(f.eval_array, 0j, 2.0) == \
            circle_sup_loop(lambda z: oracle(f, z), 0j, 2.0)


def test_circle_sup_calls_values_once_per_disk():
    calls = []

    def values(zs):
        calls.append(zs)
        return zs

    assert circle_sup(values, 1 + 0j, 0.5) == pytest.approx(1.5)
    [zs] = calls
    n = charts.CIRCLE_RADII
    assert zs.shape == (n, charts.CIRCLE_ANGLES) == (8, 256)
    # row j is the circle of radius r_j, entered at its real point center + r_j
    radii = [0.5 * j / n for j in range(1, n + 1)]
    assert list(zs[:, 0]) == [1 + r for r in radii]
    assert np.allclose(np.abs(zs - 1), np.array(radii)[:, None])


def test_branch_circles_match_the_per_circle_continuation(cheap_circles):
    P = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): F(-1, 2), (0, 0): F(-15, 4)})
    f = BranchExpr(P, (1.0, math.sqrt(1 + 0.5 + 3.75)))
    center, radius = 1.5 + 0j, 0.5
    want = circle_sup_loop(lambda z, w: w, center, radius, tracker=f.tracker)
    assert circle_sup(f.eval_array, center, radius) == want
    # a value-normalized branch and a derivative (the rat case) walk the
    # same circles and map each branch value through their own expression
    a, b = F(1, 3), F(-1, 2)
    g, d = scale_shift(f, a, b), f.deriv()
    for e, through in [(g, lambda z, w: float(a) * w + float(b)),
                       (d, d.rat)]:
        want = circle_sup_loop(through, center, radius, tracker=f.tracker)
        got = circle_sup(e.eval_array, center, radius)
        assert abs(got - want) <= 1e-12 * want


def test_a_spec_compose_of_two_rationals_collapses_to_one():
    # outer(inner(x)) with the inner's denominator a constant, as a spec's
    # "compose" node spells it: `simplify` gives the one rational pair
    e = expr_from_json({
        "kind": "compose",
        "outer": {"kind": "rational", "num": ["1", "0", "1"],
                  "den": ["1", "1"]},                   # (1 + x^2)/(1 + x)
        "inner": {"kind": "rational", "num": ["1", "3"],
                  "den": ["2"]}})                       # (1 + 3x)/2
    assert isinstance(e, ComposeExpr)
    r = simplify(e)
    assert isinstance(r, RationalExpr)
    for x in (F(0), F(1, 3), F(-5, 7)):
        v = (1 + 3 * x) / 2
        assert r.eval(x) == (1 + v * v) / (1 + v)


@pytest.mark.parametrize("c", [0, 3, F(-7, 2), 0.1, -1e-300])
def test_a_constant_is_a_degree_0_rational(c):
    # a number, simplify's zero and the constant factors of the sqrt and
    # power derivatives are RationalExpr(Poly([c])), and evaluate as the
    # constant itself, bit for bit, at any real or complex point
    x = SqrtExpr(RationalExpr(Poly([0, 1])))
    consts = [(_wrap(c), c), (simplify(MulExpr(0, x)), 0),
              (x.deriv().g, F(1, 2)), (PowExpr(x, 3).deriv().f.f, 3)]
    xs = np.array([-2.5, -0.0, 0.0, 1e300, np.inf, np.nan])
    zs = np.array([1 + 2j, complex(-0.0, -0.0), complex(np.inf, 1),
                   complex(np.nan, 0), -3j])
    for e, v in consts:
        assert isinstance(e, RationalExpr)
        assert e.as_rational() == (Poly([v]), Poly([1]))
        for a in (xs, zs):
            assert e.eval_array(a).tobytes() == \
                np.full_like(a, float(v)).tobytes()


@given(f=_leaves,
       a=st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
       b=st.fractions(min_value=-8, max_value=8, max_denominator=8))
def test_scale_shift_of_a_rational_is_one_canonical_pair(f, a, b):
    num, den = f.as_rational()
    g = scale_shift(f, a, b)
    assert isinstance(g, RationalExpr)
    assert g.as_rational() == (num * a + den * b, den)


def test_pole_through_compose_and_sqrt_fails_closed_naming_the_radius():
    # 1/(x - 1/2) under a sqrt: the pole is the angle-0 point of the circle
    # of radius 4/8 about 0, so every circle inside it is finite
    inner = RationalExpr(Poly([F(-1, 2), 1]))
    f = SqrtExpr(ComposeExpr(RationalExpr(Poly([1]), Poly([0, 1])), inner))
    with np.errstate(all="ignore"):
        with pytest.raises(EvaluationAtSingularity, match=r"radius 0\.5 about"):
            circle_sup(f.eval_array, 0j, 1.0)
