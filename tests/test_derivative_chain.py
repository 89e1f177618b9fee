"""The derivative chain of a rational function, against two oracles it
replaced: one Fraction Euclid gcd of n and d^2, and two divmods, per order;
and the one-gcd recurrence run on Polys, about thirteen per order.
`RationalExpr.deriv` takes one gcd for a whole chain (see
`poly.rational_deriv`), runs the recurrence on integer lists, and must give
every order the oracles' (num, den) exactly."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothparam.ck_param import hyperbola_parametrization
from smoothparam.funcs import RationalExpr, hyperbola_branch
from smoothparam.poly import Poly

ORDER = 6


def _oracle_deriv(num, den):
    """f' in lowest terms with lead(den') = lead(den)^2; a polynomial's
    derivative has den 1."""
    if den.degree == 0:
        return num.deriv() * (1 / den.coeffs[0]), Poly([1])
    n = num.deriv() * den - num * den.deriv()
    d = den * den
    g = n.gcd(d)
    if g.degree > 0:
        n, d = n // g, d // g
    return n, d


def _oracle_chain(num, den, order=ORDER):
    out = [(num, den)]
    for _ in range(order):
        out.append(_oracle_deriv(*out[-1]))
    return out


def _poly_recurrence_chain(num, den, order=ORDER):
    """The recurrence of `rational_deriv` on Polys, as RationalExpr.deriv
    ran it: n/d in lowest terms, h = d/gcd(d, d'), u = d'/gcd(d, d'),
    N_(i+1) = N_i' h - N_i (u + i h') over d h^(i+1), scaled so that
    lead(den) squares at every order; a constant den gives num'/den over 1."""
    out, step = [(num, den)], None
    for _ in range(order):
        num, den = out[-1]
        if den.degree == 0:
            out.append((num.deriv() * (1 / den.coeffs[0]), Poly([1])))
            continue
        if step is None:
            g = num.gcd(den)
            n, d = (num // g, den // g) if g.degree > 0 else (num, den)
            dp = d.deriv()
            g = d.gcd(dp)
            h, u = (d // g, dp // g) if g.degree > 0 else (d, dp)
            step = (h, u, h.deriv(), 0, n, d)
        h, u, hp, i, n, d = step
        n = n.deriv() * h - n * (u + hp * i)
        d = d * h
        c = den.leading() ** 2 / d.leading()
        out.append((n * c, d * c))
        step = (h, u, hp, i + 1, n, d)
    return out


def _coeffs(pairs):
    return [(n.coeffs, d.coeffs) for n, d in pairs]


def _chain(num, den, order=ORDER):
    return _coeffs(e.as_rational()
                   for e in RationalExpr(num, den).derivative_chain(order))


def _from_roots(lead, roots):
    p = Poly([lead])
    for r, m in roots:
        p = p * Poly([-r, 1]) ** m
    return p


small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
nonzero = small.filter(lambda c: c != 0)
roots = st.lists(st.tuples(small, st.integers(1, 3)), max_size=3)


@st.composite
def rationals(draw):
    """(num, den): den from roots with multiplicities, or dense (complex and
    irrational roots); num dense, constant, or sharing roots with den; and a
    common factor left in both, or not."""
    if draw(st.booleans()):
        den = _from_roots(draw(nonzero), draw(roots))
    else:
        den = Poly(draw(st.lists(small, min_size=1, max_size=4)))
        if den.is_zero():
            den = Poly([1])
    kind = draw(st.sampled_from(["dense", "constant", "shared", "poly"]))
    if kind == "constant":
        num = Poly([draw(small)])
    elif kind == "shared":
        num = _from_roots(draw(nonzero), draw(roots)) * \
            _from_roots(1, [(r, 1) for r, _ in draw(roots)])
        num = num * Poly([-draw(small), 1]) if draw(st.booleans()) else num
    elif kind == "poly":                 # reduces to a polynomial
        num = Poly(draw(st.lists(small, min_size=1, max_size=3))) * den
    else:
        num = Poly(draw(st.lists(small, max_size=4)))
    common = _from_roots(draw(nonzero), draw(roots))
    return num * common, den * common


@settings(max_examples=150)
@given(rationals())
def test_chain_matches_the_oracle(rat):
    num, den = rat
    assert _chain(num, den) == _coeffs(_oracle_chain(num, den))


@settings(max_examples=150)
@given(rationals())
def test_chain_matches_the_poly_recurrence(rat):
    # Poly equality is equality of the canonical (a, d) integer form
    num, den = rat
    chain = RationalExpr(num, den).derivative_chain(ORDER)
    assert [e.as_rational() for e in chain] == _poly_recurrence_chain(num, den)


@st.composite
def chart_compositions(draw):
    """+-eps^2/x composed with one to three affine or square maps of
    [0, 1]: the compositions f o psi of hyperbola charts."""
    e = draw(st.builds(F, st.integers(1, 9), st.just(10)))
    a = draw(st.builds(F, st.integers(1, 20), st.integers(1, 20)))
    b = a + draw(st.builds(F, st.integers(1, 20), st.integers(1, 20)))
    sign = draw(st.sampled_from([-1, 1]))
    psi = Poly([sign * a, sign * (b - a)])
    for _ in range(draw(st.integers(0, 2))):
        lo = draw(st.builds(F, st.integers(0, 3), st.just(4)))
        hi = lo + draw(st.builds(F, st.integers(1, 4 - int(4 * lo)),
                                 st.just(4)))
        step = draw(st.sampled_from(["affine", "square", "flip"]))
        inner = {"affine": Poly([lo, hi - lo]),
                 "square": Poly([lo, 0, hi - lo]),
                 "flip": Poly([hi, 0, lo - hi])}[step]
        psi = psi.compose(inner)
    return hyperbola_branch(e).precompose_poly(psi).as_rational()


@settings(max_examples=40)
@given(chart_compositions())
def test_hyperbola_chart_compositions_match_the_oracle(rat):
    num, den = rat
    assert _chain(num, den) == _coeffs(_oracle_chain(num, den))


def test_built_hyperbola_charts_match_the_oracle():
    charts = hyperbola_parametrization(F(1, 10), k=2).charts
    for chart in charts:
        num, den = chart.f_comp.as_rational()
        assert _chain(num, den) == _coeffs(_oracle_chain(num, den))
        assert _chain(num, den) == _coeffs(_poly_recurrence_chain(num, den))


def test_an_input_that_reduces_to_a_polynomial():
    # (3x^2)/(2x) = 3x/2: f' = 6/4, lead(den) = 2^2, then den 1
    chain = RationalExpr(Poly([0, 0, 3]), Poly([0, 2])).derivative_chain(3)
    assert [e.as_rational() for e in chain[1:]] == [
        (Poly([6]), Poly([4])), (Poly([]), Poly([1])), (Poly([]), Poly([1]))]


@pytest.mark.parametrize("num, den", [
    (Poly([1]), Poly([0, 1])),
    (Poly([1, 2, 3]), _from_roots(F(2, 3), [(F(1, 2), 3), (F(-1), 2)])),
    (_from_roots(1, [(F(1, 2), 2), (F(3), 1)]),
     _from_roots(5, [(F(1, 2), 3), (F(0), 2), (F(-2, 3), 1)])),
    (Poly([F(1, 7), 0, 1, 1]), Poly([1, 0, 1, 0, F(1, 3)])),
])
def test_a_chain_takes_one_gcd_in_total(monkeypatch, num, den):
    # the reduction gcd(n, d) and gcd(d, d'), and the divmods that divide by
    # them, once per chain: an order-6 chain makes the calls of an order-1
    calls = {"gcd": 0, "divmod": 0}
    gcd, divmod_ = Poly.gcd, Poly.divmod

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Poly, "gcd", counted("gcd", gcd))
    monkeypatch.setattr(Poly, "divmod", counted("divmod", divmod_))
    RationalExpr(num, den).derivative_chain(1)
    first = dict(calls)
    calls.update(gcd=0, divmod=0)
    RationalExpr(num, den).derivative_chain(ORDER)
    assert calls == first
    assert calls["gcd"] <= 2
