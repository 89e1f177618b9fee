"""Exact polynomial layer: Descartes root isolation against a Sturm-sequence
oracle (itself checked against dense bisection), fraction-free Bareiss
elimination against cofactor expansion (determinants over Z and Q[x]) and
Gaussian elimination over Q (ranks), Bareiss resultants against the
Euclidean remainder recursion with interpolation, and branch continuation
against closed forms."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smoothparam.bivar import BivarPoly, resultant_y
from smoothparam.errors import EvaluationAtSingularity
from smoothparam.funcs import (BlackboxExpr, BranchTracker, MulExpr,
                               RationalExpr, SqrtExpr, isolate_real_zeros,
                               singular_locus)
from smoothparam.poly import (ROOT_WIDTH, Poly, bareiss, complex_roots,
                              isolate_roots,
                              max_abs_on_rational_grid, squarefree_part)


def _random_poly(rng, degree, bound=5):
    cs = [F(rng.randint(-bound, bound), rng.randint(1, bound))
          for _ in range(degree + 1)]
    if all(c == 0 for c in cs):
        cs[-1] = F(1)
    return Poly(cs)


def _bisect_root_count(p, lo, hi, n=20000):
    """Dense sign-change count; oracle is only reliable away from multiple
    roots, so callers pick squarefree instances."""
    xs = np.linspace(float(lo), float(hi), n)
    vs = p.eval_array(xs)
    signs = np.sign(vs)
    signs = signs[signs != 0]
    return int(np.sum(signs[1:] != signs[:-1]))


# -- the Sturm oracle for poly.isolate_roots ---------------------------------

def sturm_chain(p):
    """Canonical Sturm chain of a squarefree-or-not polynomial."""
    if p.is_zero():
        return [p]
    chain = [p, p.deriv()]
    while chain[-1].degree > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _sign_variations(chain, x):
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo, hi):
    """Number of distinct real roots of p in (lo, hi], exact Sturm count."""
    chain = sturm_chain(squarefree_part(p))
    return _sign_variations(chain, F(lo)) - _sign_variations(chain, F(hi))


def _refine_interval(sf, a, b):
    """Sign bisection of (a, b), which holds one simple root of sf, down to
    width <= ROOT_WIDTH; a root met at a midpoint gives (m, m).  When a is a
    root itself, sf just right of a has the sign of sf'(a)."""
    fa = sf(a) or sf.deriv()(a)
    while b - a > ROOT_WIDTH:
        m = (a + b) / 2
        fm = sf(m)
        if fm == 0:
            return (m, m)
        if (fa > 0) != (fm > 0):
            b = m
        else:
            a, fa = m, fm
    return (a, b)


def sturm_isolate(p, lo, hi):
    """Sturm-sequence isolation: a root at an end or at a midpoint is
    reported as (r, r); [lo, hi] is bisected at midpoints while the open
    interval holds two or more roots, and one that holds a single root is
    refined by sign bisection."""
    lo, hi = F(lo), F(hi)
    if p.degree <= 0 or hi <= lo:
        return []
    sf = squarefree_part(p)
    chain = sturm_chain(sf)
    out = [(r, r) for r in (lo, hi) if sf(r) == 0]
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        # V(a) - V(b) counts the roots in (a, b]
        n = (_sign_variations(chain, a) - _sign_variations(chain, b)
             - (sf(b) == 0))
        if n == 1:
            out.append(_refine_interval(sf, a, b))
        elif n > 1:
            m = (a + b) / 2
            if sf(m) == 0:
                out.append((m, m))
            stack += [(a, m), (m, b)]
    return sorted(out)


def test_sturm_against_bisection_oracle():
    rng = random.Random(7)
    for _ in range(60):
        p = _random_poly(rng, rng.randint(1, 6))
        g = p.gcd(p.deriv())
        if g.degree > 0:          # keep instances squarefree
            p = p.divmod(g)[0]
        lo, hi = F(-3), F(3)
        if p(lo) == 0 or p(hi) == 0:
            continue
        assert count_real_roots(p, lo, hi) == _bisect_root_count(p, lo, hi)


def test_isolate_roots_brackets_are_disjoint_and_complete():
    rng = random.Random(11)
    for _ in range(40):
        roots = sorted(set(F(rng.randint(-8, 8), rng.randint(1, 4))
                           for _ in range(rng.randint(1, 4))))
        p = Poly([1])
        for r in roots:
            p = p * Poly([-r, 1])
        boxes = isolate_roots(p, F(-10), F(10))
        assert len(boxes) == len(roots)
        for (a, b), r in zip(sorted(boxes), roots):
            assert a <= r <= b
        for (a1, b1), (a2, b2) in zip(sorted(boxes), sorted(boxes)[1:]):
            assert b1 < a2


def _check_against_the_sturm_oracle(p, lo, hi):
    got, want = isolate_roots(p, lo, hi), sturm_isolate(p, lo, hi)
    # a cell (a, b), a < b, is open: beside a root closer than ROOT_WIDTH it
    # can end where a neighbouring cell or a reported root (r, r) begins
    assert all(b1 <= a2 for (_, b1), (a2, _) in zip(got, got[1:]))
    exact = {a for a, b in got if a == b}
    for a, b in got:
        if a == b:
            assert lo <= a <= hi and p(a) == 0
        else:
            assert lo <= a and b <= hi and b - a <= ROOT_WIDTH
            assert (p(a) != 0 or a in exact) and (p(b) != 0 or b in exact)
            assert count_real_roots(p, a, b) - (p(b) == 0) == 1
    assert got == want


_small_fraction = st.builds(F, st.integers(-16, 16), st.sampled_from([1, 2, 3, 4, 8]))


@settings(max_examples=300)
@given(roots=st.lists(_small_fraction, max_size=7),
       extra=st.lists(st.integers(-6, 6), max_size=5),
       e=st.integers(0, 3), i=st.integers(-8, 4), j=st.integers(1, 16))
def test_isolate_roots_matches_the_sturm_oracle(roots, extra, e, i, j):
    # products of rational linear factors (so roots fall on endpoints and
    # midpoints) times a small random factor, on a dyadic interval
    p = Poly(extra + [1])
    for r in roots:
        p = p * Poly([-r, 1])
    _check_against_the_sturm_oracle(p, F(i, 2 ** e), F(i + j, 2 ** e))


@settings(max_examples=150, deadline=None)
@given(lo=st.builds(F, st.integers(-40, 40),
                    st.sampled_from([1, 3, 7, 8, 12])),
       width=st.builds(F, st.integers(1, 40), st.sampled_from([1, 3, 10])),
       spots=st.lists(st.tuples(st.integers(0, 97), st.sampled_from([64, 97]),
                                st.sampled_from(["single", "pair", "double"]),
                                st.integers(41, 46), st.sampled_from([1, -1])),
                      min_size=1, max_size=4),
       extra=st.lists(st.integers(-3, 3), max_size=3))
@example(lo=F(-1, 3), width=F(7, 3), extra=[1],
         spots=[(0, 64, "single", 41, 1), (97, 97, "double", 41, 1),
                (1, 97, "pair", 46, 1), (32, 64, "pair", 41, -1)])
def test_isolate_roots_on_close_pairs_grid_points_and_repeated_roots(
        lo, width, spots, extra):
    # a root at lo + width*k/d, on a bisection point for d = 64 (an end for
    # k = 0 or k = d) and off the grid for d = 97, then either alone, with a
    # partner 2^-g away (closer than ROOT_WIDTH, so both can share a unit
    # cell of the grid) or repeated; the ends need not be dyadic
    hi = lo + width
    p = Poly(extra + [1])
    for k, d, kind, g, side in spots:
        r = lo + width * F(k, d)
        p = p * Poly([-r, 1])
        if kind == "pair":
            p = p * Poly([-r - F(side, 2 ** g), 1])
        elif kind == "double":
            p = p * Poly([-r, 1])
    _check_against_the_sturm_oracle(p, lo, hi)


def test_sturm_chain_endpoints_sign_convention():
    p = Poly([-2, 0, 1])          # x^2 - 2
    chain = sturm_chain(p)
    assert chain[0] == p
    assert count_real_roots(p, F(0), F(2)) == 1
    assert count_real_roots(p, F(2), F(3)) == 0


def test_complex_roots_match_numpy():
    p = Poly([F(1), F(0), F(1)])   # x^2 + 1
    rs = sorted((z for z, _err in complex_roots(p)), key=lambda z: z.imag)
    assert abs(rs[0] + 1j) < 1e-9 and abs(rs[1] - 1j) < 1e-9


# -- the resultant oracle for bivar.resultant_y --------------------------------

def lagrange_interpolate(points) -> Poly:
    """Exact Lagrange interpolation through rational (x, y) pairs."""
    result = Poly([])
    pts = [(F(x), F(y)) for x, y in points]
    for i, (xi, yi) in enumerate(pts):
        term = Poly.const(yi)
        for j, (xj, _) in enumerate(pts):
            if i == j:
                continue
            term = term * Poly.affine(1 / (xi - xj), -xj / (xi - xj))
        result = result + term
    return result


def scalar_resultant(p, q):
    """Res(p, q) by the Euclidean remainder recursion
    Res(p, q) = (-1)^(mn) lc(q)^(m - deg r) Res(q, r), r = p mod q."""
    m, n = p.degree, q.degree
    if n == 0:
        return q.leading() ** m
    r = p % q
    if r.is_zero():
        return F(0)
    sign = -1 if m * n % 2 else 1
    return sign * q.leading() ** (m - r.degree) * scalar_resultant(q, r)


def resultant_y_interpolated(P, Q):
    """Res_y(P, Q) evaluated at many rational x by the Euclidean remainder
    recursion, then Lagrange-interpolated.  It shares no elimination code
    with resultant_y."""
    bound = P.degx * Q.degy + Q.degx * P.degy + 1
    pts = []
    x = F(0)
    while len(pts) < bound:
        py, qy = P.y_poly_at(x), Q.y_poly_at(x)
        if py.degree == P.degy and qy.degree == Q.degy:
            pts.append((x, scalar_resultant(py, qy)))
        x += 1
    return lagrange_interpolate(pts)


def test_lagrange_interpolation_recovers_poly():
    rng = random.Random(3)
    for _ in range(20):
        p = _random_poly(rng, rng.randint(0, 5))
        pts = [(F(i), p(F(i))) for i in range(p.degree + 1)]
        assert lagrange_interpolate(pts) == p


@given(cs=st.lists(st.fractions(min_value=-10**6, max_value=10**6,
                                max_denominator=10**4), max_size=9),
       x=st.one_of(st.fractions(min_value=-10**3, max_value=10**3,
                                max_denominator=10**5),
                   st.integers(-10**4, 10**4)))
def test_exact_evaluation_matches_fraction_horner(cs, x):
    # __call__ evaluates in integers; Horner over Fractions is the reference
    want = F(0)
    for c in reversed(cs):
        want = want * x + c
    got = Poly(cs)(x)
    assert got == want and type(got) is F


def test_exact_grid_max_matches_fraction_horner():
    rng = random.Random(19)
    for _ in range(20):
        p = _random_poly(rng, rng.randint(0, 6))
        N = 64
        direct = max(abs(p(F(i, N))) for i in range(N + 1))
        assert max_abs_on_rational_grid(p, N) == direct


_bivar = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 3)),
                         st.fractions(-4, 4, max_denominator=3), max_size=6)


@given(_bivar, _bivar)
def test_resultant_bareiss_vs_interpolation(cp, cq):
    P, Q = BivarPoly(cp), BivarPoly(cq)
    assume(P.degy >= 1 and Q.degy >= 0)
    assert resultant_y(P, Q) == resultant_y_interpolated(P, Q)


def test_resultant_of_known_intersection():
    # P = y - x^2, Q = y - 2x: resultant in y is 2x - x^2 up to sign
    P = BivarPoly({(0, 1): F(1), (2, 0): F(-1)})
    Q = BivarPoly({(0, 1): F(1), (1, 0): F(-2)})
    r = resultant_y(P, Q)
    roots = sorted(x for x, _ in
                   ((float(a + b) / 2, 0) for a, b in isolate_roots(r, F(-5), F(5))))
    assert len(roots) == 2
    assert abs(roots[0]) < 1e-6 and abs(roots[1] - 2) < 1e-6


class _FractionBivar:
    """The dict-of-Fraction BivarPoly that the rows of Poly replaced, kept
    as the oracle of its exact arithmetic: {(i, j): c}, zeros dropped."""

    def __init__(self, coeffs):
        cs = {}
        for (i, j), c in coeffs.items():
            cs[(i, j)] = cs.get((i, j), F(0)) + F(c)
        self.coeffs = {k: v for k, v in cs.items() if v != 0}
        self.degy = max((j for _, j in self.coeffs), default=-1)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, F(0)) + v
        return _FractionBivar(out)

    def __neg__(self):
        return _FractionBivar({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, _FractionBivar):
            return _FractionBivar({k: v * F(other)
                                   for k, v in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, F(0)) + c1 * c2
        return _FractionBivar(out)

    def dx(self):
        return _FractionBivar({(i - 1, j): i * c
                               for (i, j), c in self.coeffs.items() if i})

    def dy(self):
        return _FractionBivar({(i, j - 1): j * c
                               for (i, j), c in self.coeffs.items() if j})

    def __call__(self, x, y):
        return sum((c * x ** i * y ** j for (i, j), c in self.coeffs.items()),
                   F(0))

    def y_poly_at(self, x):
        cs = [F(0)] * (self.degy + 1)
        for (i, j), c in self.coeffs.items():
            cs[j] += c * F(x) ** i
        return Poly(cs)

    def swap_xy(self):
        return _FractionBivar({(j, i): c for (i, j), c in self.coeffs.items()})


def _same(P, want):
    """P holds the oracle's terms, rows and degrees."""
    assert {(i, j): c for i, j, c in P.terms()} == want.coeffs
    assert (P.degx, P.degy, P.is_zero()) == (
        max((i for i, _ in want.coeffs), default=-1),
        max((j for _, j in want.coeffs), default=-1), not want.coeffs)
    assert not P.rows or P.rows[-1]


_POINT = st.one_of(st.fractions(-3, 3, max_denominator=5), st.integers(-3, 3))


@given(_bivar, _bivar, st.fractions(-3, 3, max_denominator=4), _POINT, _POINT)
@example({}, {(1, 2): F(0), (0, 0): F(2)}, F(0), 0, F(1, 2))
@example({(2, 1): F(1), (0, 0): F(-1)}, {(2, 1): F(-1), (1, 3): F(0)},
         F(-3, 2), F(1, 3), -2)
def test_ring_matches_the_fraction_dict_oracle(cp, cq, c, x, y):
    # rows of Poly against the dict of Fractions: sums, differences,
    # products by a scalar and by a polynomial, partials, exact values, the
    # fibre at x, the swap and equality, zeros and the zero polynomial
    # included
    P, Q = BivarPoly(cp), BivarPoly(cq)
    p, q = _FractionBivar(cp), _FractionBivar(cq)
    _same(P, p)
    for got, want in ((P + Q, p + q), (P - Q, p - q), (-P, -p),
                      (P * c, p * c), (c * P, p * c), (P * Q, p * q),
                      (P.dx(), p.dx()), (P.dy(), p.dy()),
                      (P.swap_xy(), p.swap_xy())):
        _same(got, want)
    assert P(x, y) == p(x, y) and type(P(x, y)) is F
    assert P.y_poly_at(x) == p.y_poly_at(x)
    assert (P == Q) == (p.coeffs == q.coeffs)
    assert P == BivarPoly(dict(reversed(cp.items())))
    assert P + Q - Q == P and (P * Q == Q * P)


def test_branch_continuation_sqrt_closed_form():
    # y^2 = x, branch through (1, 1): y = sqrt(x) along the positive axis
    P = BivarPoly({(1, 0): F(1), (0, 2): F(-1)})
    path = list(np.linspace(1.0, 4.0, 50))
    vals = BranchTracker(P, (1.0, 1.0)).eval_path(path)
    for x, v in zip(path, vals):
        assert abs(v - math.sqrt(x)) < 1e-8


def test_branch_monodromy_around_origin():
    # a loop around the branch point of y^2 = x swaps the two sheets
    P = BivarPoly({(1, 0): F(1), (0, 2): F(-1)})
    loop = [complex(math.cos(t), math.sin(t))
            for t in np.linspace(0.0, 2 * math.pi, 200)]
    vals = BranchTracker(P, (1.0, 1.0)).eval_path(loop)
    assert abs(vals[-1] + 1.0) < 1e-6   # came back on the other sheet


def test_singular_locus_of_nodal_cubic():
    # y^2 - x^2 (x + 1): node at x = 0
    P = BivarPoly({(0, 2): F(1), (2, 0): F(-1), (3, 0): F(-1)})
    sing = singular_locus(P)
    assert any(abs(z) < 1e-8 for z in sing)


def test_isolate_real_zeros_rational_excludes_poles():
    # f = (x^2 - 1)/x on [-2, 2]: zeros at +-1, pole at 0 must not appear
    f = RationalExpr(Poly([-1, 0, 1]), Poly([0, 1]))
    zs = isolate_real_zeros(f, (F(-2), F(2)))
    mids = sorted(float(a + b) / 2 for a, b in zs)
    assert len(mids) == 2
    assert abs(mids[0] + 1) < 1e-6 and abs(mids[1] - 1) < 1e-6


@pytest.mark.parametrize("pole", [F(0), F(1)])
def test_isolate_real_zeros_drops_a_removable_point(pole):
    # h/(h (x - pole)) with h = x - 1/3 has no zero on [0, 1]: the root of h
    # is a root of the denominator too, whose own root sits at an endpoint
    h = Poly([F(-1, 3), 1])
    f = RationalExpr(h, h * Poly([-pole, 1]))
    assert isolate_real_zeros(f, (F(0), F(1))) == []


def test_isolate_real_zeros_keeps_a_zero_beside_a_pole():
    # (x - 1/3)/(x - 1/3 - 2^-50) is zero at 1/3, and its pole lies in the
    # zero's own isolating interval, which must not hide the zero
    r = F(1, 3)
    f = RationalExpr(Poly([-r, 1]), Poly([-r - F(1, 2**50), 1]))
    zs = isolate_real_zeros(f, (F(0), F(1)))
    assert len(zs) == 1 and zs[0][0] <= r <= zs[0][1]


def test_isolate_real_zeros_sqrt_expression():
    # x*sqrt(x) - 1/8 is zero at x = 1/4 on [0, 1]
    f = MulExpr(RationalExpr(Poly([0, 1])), SqrtExpr(RationalExpr(Poly([0, 1]))))
    from smoothparam.funcs import AddExpr
    g = AddExpr(f, RationalExpr(Poly([F(-1, 8)])))
    zs = isolate_real_zeros(g, (F(0), F(1)))
    assert len(zs) == 1
    a, b = zs[0]
    assert a <= F(1, 4) <= b


def test_isolate_real_zeros_keeps_a_zero_at_the_last_sample():
    # sqrt(1 - x) on [0, 1] is 0 at its last sample, x = 1, and positive
    # before it, so no sign change finds that zero: the end check must
    f = SqrtExpr(RationalExpr(Poly([1, -1])))
    assert isolate_real_zeros(f, (F(0), F(1))) == [(1.0, 1.0)]


@pytest.mark.parametrize("where", ["sample", "midpoint"])
def test_isolate_real_zeros_raises_on_a_nan_value(where):
    # x - 0.3 on [0, 1]: the root lies between samples 1228 and 1229 of
    # 4,097; a NaN at sample 1229 (or at the first bisection midpoint) has
    # no sign, so the sign change across it would be lost or misplaced
    xs = np.linspace(0.0, 1.0, 4097)
    bad = float(xs[1229] if where == "sample" else (xs[1228] + xs[1229]) / 2)
    clean = BlackboxExpr(lambda x: x - 0.3, zero_count=1)
    assert isolate_real_zeros(clean, (0, 1)) == [(0.3, 0.3)]
    f = BlackboxExpr(lambda x: math.nan if x == bad else x - 0.3,
                     zero_count=1)
    with pytest.raises(EvaluationAtSingularity, match=f"x = {bad}"):
        isolate_real_zeros(f, (0, 1))


def _leibniz_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _leibniz_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(n))


# -- the elimination oracle for poly.bareiss -----------------------------------

def gauss_eliminate(rows):
    """Forward Gaussian elimination over Q.  Returns (pivots, sign): the
    pivot value of each pivot row in order, and (-1)^(row swaps).  The rank
    is len(pivots); a square matrix of full rank has determinant
    sign * prod(pivots)."""
    mat = [list(map(F, r)) for r in rows]
    cols = len(mat[0]) if mat else 0
    pivots, sign, row = [], 1, 0
    for col in range(cols):
        for piv in range(row, len(mat)):
            if mat[piv][col] != 0:
                break
        else:
            continue
        if piv != row:
            mat[row], mat[piv] = mat[piv], mat[row]
            sign = -sign
        inv = 1 / mat[row][col]
        for r in range(row + 1, len(mat)):
            if mat[r][col] != 0:
                fct = mat[r][col] * inv
                for c2 in range(col, cols):
                    mat[r][c2] -= fct * mat[row][c2]
        pivots.append(mat[row][col])
        row += 1
        if row == len(mat):
            break
    return pivots, sign


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_det_and_rank_against_cofactor_oracle(m):
    rank, det = bareiss(m)
    assert det == _leibniz_det(m)
    assert rank == bareiss(list(zip(*m)))[0]                  # rank of A^T
    assert (rank == len(m)) == (det != 0)


_entry = st.lists(st.fractions(-3, 3, max_denominator=3), max_size=3).map(Poly)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_entry, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_bareiss_det_over_polynomials_against_cofactor_oracle(m):
    assert (bareiss(m)[1] or Poly([])) == _leibniz_det(m) + Poly([])


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 6), st.data())
def test_bareiss_rank_of_rational_matrices_against_gauss(r, c, k, data):
    # a product A B of r x k and k x c factors has rank <= min(r, k, c);
    # each row is then cleared to integers, as on_hypersurface does
    fr = st.fractions(-3, 3, max_denominator=4)
    A = data.draw(st.lists(st.lists(fr, min_size=k, max_size=k),
                           min_size=r, max_size=r))
    B = data.draw(st.lists(st.lists(fr, min_size=c, max_size=c),
                           min_size=k, max_size=k))
    M = [[sum((a * B[i][j] for i, a in enumerate(row)), F(0))
          for j in range(c)] for row in A]
    ints = []
    for row in M:
        L = math.lcm(*(v.denominator for v in row))
        ints.append([v.numerator * (L // v.denominator) for v in row])
    pivots, sign = gauss_eliminate(M)
    rank, det = bareiss(ints)
    assert rank == len(pivots) <= min(r, k, c)
    if r == c:
        L = math.prod(math.lcm(*(v.denominator for v in row)) for row in M)
        full = sign * math.prod(pivots) if rank == r else 0
        assert det == full * L
