"""Exact grid maxima: max_abs_on_rational_grid, max_abs_ratio_on_grid and
ratio_chain_maxima (every order of a rational f from one derivative chain),
which search the grid ends and the unit cells that hold a critical point or
a pole, against a plain Fraction scan of every grid point; a ratio whose
den has a real root in [0, 1] reads inf.  The cases: critical points and
poles placed on grid points (at bisection midpoints and elsewhere), at
half-way points and beside grid points, double roots, shared roots of num
and den, constant ratios, denominators with roots on the grid, denominators
that are tiny in floats but not zero, constants, lines and ties, grids that
are not powers of two, coefficients beyond the float range, zero numerators
and high degrees."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothparam.funcs import RationalExpr
from smoothparam.poly import (Poly, max_abs_on_rational_grid, max_abs_ratio_on_grid,
                              ratio_chain_maxima)

GRIDS = (1, 2, 3, 100, 4096, 4097, 16384)


def direct(p, N):
    return max(abs(p(F(i, N))) for i in range(N + 1))


def direct_ratio(num, den, N):
    """The scan of every grid point, or math.inf where den has a real root
    in [0, 1]: at a grid point or, by Sturm's theorem, between two."""
    vals = [den(F(i, N)) for i in range(N + 1)]
    if 0 in vals or sturm_root_in_unit_interval(den):
        return math.inf
    return max(abs(num(F(i, N)) / d) for i, d in enumerate(vals))


def _coeffs(max_degree, bound):
    c = st.builds(F, st.integers(-bound, bound), st.integers(1, bound))
    return st.lists(c, min_size=1, max_size=max_degree + 1)


@st.composite
def _grid_and_degree(draw):
    N = draw(st.sampled_from(GRIDS))
    # the Fraction oracle costs N * degree; keep the large grids at low degree
    return N, (20 if N <= 100 else 8 if N <= 4097 else 4)


@settings(max_examples=40)
@given(st.data())
def test_grid_max_matches_fraction_scan(data):
    N, deg = data.draw(_grid_and_degree())
    big = data.draw(st.sampled_from((10, 10**12)))
    p = Poly(data.draw(_coeffs(deg, big)))
    assert max_abs_on_rational_grid(p, N) == direct(p, N)


@settings(max_examples=40)
@given(st.data())
def test_grid_ratio_matches_fraction_scan(data):
    N, deg = data.draw(_grid_and_degree())
    big = data.draw(st.sampled_from((10, 10**12)))
    num = Poly(data.draw(_coeffs(deg, big)))
    den = Poly(data.draw(_coeffs(deg // 2, big)))
    kind = data.draw(st.sampled_from(("plain", "root", "near-root")))
    if kind != "plain":
        # a factor (x - r) with r on the grid; "near-root" lifts it by a
        # nonzero amount far below float resolution
        r = F(data.draw(st.integers(0, N)), N)
        lift = F(1, 10**30) if kind == "near-root" else 0
        den = den * Poly([-r, 1]) + lift
    assert max_abs_ratio_on_grid(num, den, N) == direct_ratio(num, den, N)


def sturm_root_in_unit_interval(p):
    """Whether p, nonzero at 0 and 1, has a real root in (0, 1): Sturm's
    theorem over Q (a square factor scales every term alike)."""
    seq = [p, p.deriv()]
    while seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))

    def changes(x):
        signs = [v > 0 for v in (q(x) for q in seq) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))
    return changes(F(0)) > changes(F(1))


@settings(max_examples=40)
@given(st.data())
def test_grid_ratio_reports_a_pole_in_the_unit_interval(data):
    # a den with a real root in [0, 1], on the grid or between its points,
    # gives inf, and any other den the grid max; a drawn root, simple or
    # double, sits at a grid point or a cell's midpoint, or a millionth of a
    # cell past one
    N, deg = data.draw(_grid_and_degree())
    num = Poly(data.draw(_coeffs(deg, 10)))
    den = Poly(data.draw(_coeffs(deg // 2, 10)))
    if data.draw(st.booleans()):
        r = F(data.draw(st.integers(0, 2 * N)), 2 * N)
        r += data.draw(st.sampled_from([0, F(1, 10**6 * N)]))
        den = den * Poly([-r, 1]) ** data.draw(st.integers(1, 2))
    assert max_abs_ratio_on_grid(num, den, N) == direct_ratio(num, den, N)


def test_grid_ratio_pole_needs_a_real_root_in_its_cell():
    # (x - 1/3)^2 + 10^-30 has two sign variations on the unit cell about
    # 1/3 at N = 4 and 100, but no real root: its max is a grid value
    den = Poly([F(1, 9) + F(1, 10**30), F(-2, 3), 1])
    for N in (4, 100):
        assert max_abs_ratio_on_grid(Poly([1]), den, N) == \
            direct_ratio(Poly([1]), den, N) < math.inf
    assert max_abs_ratio_on_grid(Poly([1]), den * Poly([F(-1, 7), 1]),
                                 4) == math.inf


def test_grid_ratio_finds_a_tiny_nonzero_denominator():
    # den(37/100) = 10^-40 exactly: floats cannot tell it from 0, and that
    # point holds the max
    N, r = 100, F(37, 100)
    num, den = Poly([1]), Poly([-r, 1]) * Poly([-r, 1]) + F(1, 10**40)
    assert max_abs_ratio_on_grid(num, den, N) == 10**40
    assert max_abs_ratio_on_grid(num, den, N) == direct_ratio(num, den, N)


@pytest.mark.parametrize("N", GRIDS)
def test_constants_lines_and_ties(N):
    cases = [Poly([]), Poly([F(-7, 3)]), Poly([F(1, 3), F(-2, 3)]),
             Poly([F(-1, 2), 1]),                  # |x - 1/2|: ends tie
             Poly([F(1, 4), -1, 1])]               # (x - 1/2)^2: ends tie
    for p in cases:
        assert max_abs_on_rational_grid(p, N) == direct(p, N)
    den = Poly([2, 5, 1])
    for num in (den * F(-3, 7), Poly([F(5, 2)]), Poly([])):
        assert max_abs_ratio_on_grid(num, den, N) == direct_ratio(num, den, N)
    assert max_abs_ratio_on_grid(Poly([1]), Poly([]), N) == math.inf


@pytest.mark.parametrize("N", (100, 4097))
def test_coefficients_beyond_float_range(N):
    huge = Poly([3, -10**400, 1, 10**399])         # float() overflows
    wide = Poly([1, 10**308, 0, 10**308, F(1, 7)])  # float Horner overflows
    for p in (huge, wide):
        assert max_abs_on_rational_grid(p, N) == direct(p, N)
        assert max_abs_ratio_on_grid(p, Poly([1, 1, 2]), N) == \
            direct_ratio(p, Poly([1, 1, 2]), N)
        assert max_abs_ratio_on_grid(Poly([1, 2, 3]), p, N) == \
            direct_ratio(Poly([1, 2, 3]), p, N)


def test_high_degree_with_large_denominators():
    N = 100
    num = Poly([F((-1) ** j * (j + 1), 10**12 + j) for j in range(21)])
    den = Poly([F(1, 10**15), F(-3, 10**14), F(7, 10**13), F(1, 10**12)])
    assert max_abs_on_rational_grid(num, N) == direct(num, N)
    assert max_abs_ratio_on_grid(num, den, N) == direct_ratio(num, den, N)


# -- critical points and poles placed by construction ------------------------

CHOSEN_GRIDS = (1, 2, 3, 5, 4096)


def _bisection_midpoints(N, depth=4):
    """The first midpoints (a + b) // 2 met by bisecting [0, N]."""
    out, level = [], [(0, N)]
    for _ in range(depth):
        nxt = []
        for a, b in level:
            if b - a > 1:
                m = (a + b) // 2
                out.append(m)
                nxt += [(a, m), (m, b)]
        level = nxt
    return out


@st.composite
def _point(draw, N):
    """A root location: an end of [0, 1], a bisection midpoint or another
    grid point i/N, a half-way point (i + 1/2)/N, a point beside a grid
    point, or a point off [0, 1]."""
    kind = draw(st.sampled_from(
        ("end", "midpoint", "grid", "half", "beside", "outside")))
    if kind == "end":
        return F(draw(st.sampled_from((0, N))), N)
    if kind == "midpoint":
        return F(draw(st.sampled_from(_bisection_midpoints(N) or [0])), N)
    i = draw(st.integers(0, N))
    if kind == "grid":
        return F(i, N)
    if kind == "half":
        return F(2 * i + 1, 2 * N)
    if kind == "beside":
        return F(i, N) + draw(st.sampled_from((1, -1))) * F(1, 1000 * N)
    return draw(st.sampled_from((F(-1, 3), F(5, 4), F(-1, 10**6),
                                 1 + F(1, 10**6))))


@st.composite
def _roots(draw, N, max_count, min_count=0):
    """Points from _point, each a simple or a double root."""
    pts = draw(st.lists(_point(N), min_size=min_count, max_size=max_count))
    return [r for r in pts for _ in range(draw(st.sampled_from((1, 2))))]


def _from_roots(roots, lead=1):
    p = Poly([lead])
    for r in roots:
        p = p * Poly([-r, 1])
    return p


def _antiderivative(p, c):
    return Poly([c] + [a / (j + 1) for j, a in enumerate(p.coeffs)])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_grid_max_with_chosen_critical_points(data):
    N = data.draw(st.sampled_from(CHOSEN_GRIDS))
    lead = data.draw(st.sampled_from((1, -3, F(1, 7))))
    dp = _from_roots(data.draw(_roots(N, 3)), lead)
    p = _antiderivative(dp, data.draw(st.sampled_from((0, F(-1, 5), 2))))
    assert max_abs_on_rational_grid(p, N) == direct(p, N)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_grid_ratio_with_chosen_critical_points_and_poles(data):
    N = data.draw(st.sampled_from(CHOSEN_GRIDS))
    kind = data.draw(st.sampled_from(("shared", "pole", "constant", "bump")))
    if kind == "shared":
        # num = p g, den = c g: W = c p' g^2 vanishes at the chosen critical
        # points of p, and num and den share the roots of g
        dp = _from_roots(data.draw(_roots(N, 2)))
        p = _antiderivative(dp, data.draw(st.sampled_from((0, 1, F(-1, 3)))))
        g = _from_roots(data.draw(_roots(N, 2)))
        num, den = p * g, g * data.draw(st.sampled_from((1, F(-2, 3))))
    elif kind == "pole":
        # den vanishes on, beside or between grid points
        num = _from_roots(data.draw(_roots(N, 2)),
                          data.draw(st.sampled_from((1, F(-5, 2)))))
        den = _from_roots(data.draw(_roots(N, 2, min_count=1)))
    elif kind == "constant":
        # num = c den: W is 0 and the ratio is constant off the roots of den
        den = (_from_roots(data.draw(_roots(N, 3)))
               + data.draw(st.sampled_from((0, F(1, 9)))))
        num = den * F(-4, 3)
    else:
        # c / ((x - r)^e + lift): W vanishes at r, to order e - 1
        r = data.draw(_point(N))
        e = data.draw(st.sampled_from((2, 4)))
        lift = data.draw(st.sampled_from((F(1, N * N), F(1, 10**9))))
        num = Poly([data.draw(st.sampled_from((1, F(-7, 3))))])
        den = Poly([-r, 1]) ** e + lift
    assert max_abs_ratio_on_grid(num, den, N) == direct_ratio(num, den, N)


@pytest.mark.parametrize("N", CHOSEN_GRIDS)
def test_grid_ratio_next_to_a_pole(N):
    # 1/(x - r): inf with r at an end, on an interior grid point, beside one
    # and half-way; with r just outside [0, 1] there is no critical point,
    # so the max sits at the end beside the pole
    m = N // 2
    for r in (F(0), F(1), F(m, N), F(m, N) + F(1, 1000 * N), F(1, 2 * N),
              -F(1, 1000 * N), 1 + F(1, 1000 * N)):
        num, den = Poly([1]), Poly([-r, 1])
        assert max_abs_ratio_on_grid(num, den, N) == direct_ratio(num, den, N)


# -- every order of one chain ----------------------------------------------------

_SMALL = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def _chain_rationals(draw):
    """(num, den) of degree <= 4: den dense, constant, or with a pole in
    [0, 1] (at a grid point of every drawn N, at a half-way point, or
    elsewhere) or outside it; num dense or zero; and a factor common to
    both, with a root inside [0, 1] or outside it, or none."""
    kind = draw(st.sampled_from(("dense", "constant", "pole", "far pole")))
    den = Poly(draw(st.lists(_SMALL, min_size=1, max_size=4 if kind in (
        "pole", "far pole") else 5)))
    if den.is_zero() or kind == "constant":
        den = Poly([draw(_SMALL.filter(bool))])
    if kind != "dense" and kind != "constant":
        r = draw(st.sampled_from((F(0), F(1), F(1, 2), F(1, 3), F(1, 10**6)))
                 if kind == "pole" else st.sampled_from((F(-1, 3), F(5, 4))))
        den = den * Poly([-r, 1])
    num = Poly(draw(st.lists(_SMALL, max_size=5)))
    if draw(st.booleans()):
        common = Poly([-draw(st.sampled_from((F(1, 4), F(3, 2)))), 1])
        num, den = num * common, den * common
    return num, den


@settings(max_examples=25, deadline=None)
@given(_chain_rationals(), st.sampled_from((1, 5, 4096, 16384)),
       st.integers(1, 3), st.sampled_from((0, F(1, 3), -2)))
def test_chain_maxima_match_the_scan_of_each_order(rat, N, top, shift):
    # order 0 reads the den as given, less the shift; every order i >= 1
    # the chain's own f^(i), as RationalExpr.derivative_chain builds it
    num, den = rat
    chain = RationalExpr(num, den).derivative_chain(top)
    got = ratio_chain_maxima(num, den, range(top + 1), shift, N)
    assert list(got) == list(range(top + 1))
    assert got[0] == direct_ratio(num - den * shift, den, N)
    for i in range(1, top + 1):
        assert got[i] == direct_ratio(*chain[i].as_rational(), N)


def test_chain_maxima_keep_the_order_0_pole_that_lowest_terms_cancels():
    # 0/(x - 1/2) and (x - 1/2)/(x - 1/2): order 0 reads inf at the root of
    # the den as given, and the orders >= 1 of n/d in lowest terms are 0
    N, g = 8, Poly([F(-1, 2), 1])
    for num in (Poly([]), g):
        got = ratio_chain_maxima(num, g, range(3), 0, N)
        assert got == {0: math.inf, 1: 0, 2: 0}
        assert ratio_chain_maxima(num, g, (2, 1), 0, N) == {2: 0, 1: 0}
