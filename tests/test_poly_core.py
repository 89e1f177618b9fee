"""Exact polynomial layer: Sturm counting/isolation against a dense bisection
oracle, Bareiss resultants against interpolation, elimination over Q against
cofactor expansion, and branch continuation against closed forms."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from smoothparam.bivar import (BivarPoly, resultant_y, resultant_y_interpolated)
from smoothparam.funcs import (BranchExpr, MulExpr, RationalExpr, SqrtExpr,
                               branch_continuation, isolate_real_zeros,
                               singular_locus)
from smoothparam.poly import (Poly, complex_roots, count_real_roots,
                              gauss_eliminate,
                              isolate_roots, lagrange_interpolate,
                              max_abs_on_rational_grid, sturm_chain)


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


def test_resultant_bareiss_vs_interpolation():
    rng = random.Random(23)
    for _ in range(15):
        P = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       F(rng.randint(-4, 4)) for _ in range(5)})
        Q = BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                       F(rng.randint(-4, 4)) for _ in range(5)})
        if P.degy < 1 or Q.degy < 1:
            continue
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


def test_branch_continuation_sqrt_closed_form():
    # y^2 = x, branch through (1, 1): y = sqrt(x) along the positive axis
    P = BivarPoly({(1, 0): F(1), (0, 2): F(-1)})
    path = list(np.linspace(1.0, 4.0, 50))
    vals = branch_continuation(P, (1.0, 1.0), path)
    for x, v in zip(path, vals):
        assert abs(v - math.sqrt(x)) < 1e-8


def test_branch_monodromy_around_origin():
    # a loop around the branch point of y^2 = x swaps the two sheets
    P = BivarPoly({(1, 0): F(1), (0, 2): F(-1)})
    loop = [complex(math.cos(t), math.sin(t))
            for t in np.linspace(0.0, 2 * math.pi, 200)]
    vals = branch_continuation(P, (1.0, 1.0), loop)
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


def test_isolate_real_zeros_sqrt_expression():
    # x*sqrt(x) - 1/8 is zero at x = 1/4 on [0, 1]
    f = MulExpr(RationalExpr(Poly([0, 1])), SqrtExpr(RationalExpr(Poly([0, 1]))))
    from smoothparam.funcs import AddExpr
    g = AddExpr(f, RationalExpr(Poly([F(-1, 8)])))
    zs = isolate_real_zeros(g, (F(0), F(1)))
    assert len(zs) == 1
    a, b = zs[0]
    assert a <= F(1, 4) <= b


def _leibniz_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * _leibniz_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(n))


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)))
def test_gauss_eliminate_det_and_rank_against_cofactor_oracle(m):
    pivots, sign = gauss_eliminate(m)
    det = sign * math.prod(pivots) if len(pivots) == len(m) else 0
    assert det == _leibniz_det(m)
    assert len(pivots) == len(gauss_eliminate(list(zip(*m)))[0])   # rank of A^T
    assert (len(pivots) == len(m)) == (det != 0)
