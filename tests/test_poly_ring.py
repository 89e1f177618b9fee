"""`Poly` over Z against Fraction references.  A `Poly` holds integer
numerators over one positive denominator; every operation must give the
coefficients that plain Fraction arithmetic gives, `gcd` the monic gcd of
the Euclidean algorithm over Q, and `_int_scaled` the integers of the lcm
formula.  The Euclidean gcd and the long division below are the Fraction
code that `poly` ran before it moved to Z."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothparam import poly
from smoothparam.poly import Poly, _int_scaled


# -- Fraction references, on coefficient tuples (low degree first) ------------

def _trim(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _add(a, b):
    n = max(len(a), len(b))
    return _trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                  for i in range(n)])


def _mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _compose(a, b):
    acc = ()
    for c in reversed(a):
        acc = _add(_mul(acc, b), (c,))
    return acc


def _deriv(a):
    return _trim([i * x for i, x in enumerate(a)][1:])


def _eval(a, x):
    acc = F(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def euclid_divmod(a, b):
    """Long division over Q: (q, r) with a = q b + r, deg r < deg b."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    r, m = list(a), len(b) - 1
    q = [F(0)] * max(0, len(r) - m)
    for k in range(len(r) - 1 - m, -1, -1):
        f = r[k + m] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] -= f * c
    return _trim(q), _trim(r[:m])


def euclid_gcd(a, b):
    """The monic gcd by Euclid's algorithm over Q (zero when both are)."""
    while b:
        a, b = b, euclid_divmod(a, b)[1]
    return tuple(c / a[-1] for c in a) if a else ()


def _lcm_scaled(cs, N):
    """`_int_scaled` by the lcm of the reduced denominators."""
    n = len(cs) - 1
    if n < 0:
        return [0], 1
    L = math.lcm(*(c.denominator for c in cs))
    return ([c.numerator * (L // c.denominator) * N ** (n - j)
             for j, c in enumerate(cs)], L * N ** n)


def _check_invariant(p):
    a, d = p._a, p._d
    assert d > 0
    assert math.gcd(d, *a) == 1
    assert not a or a[-1] != 0
    assert p.coeffs == tuple(F(x, d) for x in a)


# -- strategies ---------------------------------------------------------------

_fraction = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
_float = st.floats(-1e3, 1e3, allow_subnormal=False)
_coeff = st.one_of(_fraction, st.integers(-10**20, 10**20), _float,
                   st.just(0))
_coeffs = st.lists(_coeff, max_size=6)
_small = st.lists(st.one_of(_fraction, st.just(0)), max_size=5)


@settings(max_examples=200, deadline=None)
@given(a=_coeffs, b=_coeffs, c=_coeff)
def test_ring_operations_match_fractions(a, b, c):
    p, q = Poly(a), Poly(b)
    ra, rb = _trim(a), _trim(b)
    assert p.coeffs == ra and q.coeffs == rb
    cases = [(p + q, _add(ra, rb)),
             (p - q, _add(ra, tuple(-x for x in rb))),
             (-p, tuple(-x for x in ra)),
             (p * q, _mul(ra, rb)),
             (p * c, _mul(ra, (F(c),))),
             (c * p, _mul(ra, (F(c),))),
             (p + c, _add(ra, _trim([c]))),
             (c - p, _add(_trim([c]), tuple(-x for x in ra))),
             (p ** 2, _mul(ra, ra)),
             (p.deriv(), _deriv(ra))]
    for got, want in cases:
        _check_invariant(got)
        assert got.coeffs == want
    assert [d.coeffs for d in p.derivs(3)] == [
        ra, _deriv(ra), _deriv(_deriv(ra)), _deriv(_deriv(_deriv(ra)))]
    assert (p == q) == (ra == rb)
    assert p == Poly(ra) and hash(p) == hash(Poly(ra))
    assert p.leading() == (ra[-1] if ra else 0)
    assert p.degree == len(ra) - 1 and bool(p) == bool(ra)
    assert p.as_float_coeffs().tolist() == [float(x) for x in ra]


@settings(max_examples=150, deadline=None)
@given(a=_small, b=_small, x=_fraction, y=_float)
def test_compose_and_evaluation_match_fractions(a, b, x, y):
    p, q = Poly(a), Poly(b)
    ra, rb = _trim(a), _trim(b)
    got = p.compose(q)
    _check_invariant(got)
    assert got.coeffs == _compose(ra, rb)
    assert p(x) == _eval(ra, x) and p(3) == _eval(ra, F(3))
    # the float path rounds as Horner on float(c), starting from 0.0
    acc = 0.0
    for c in reversed(ra):
        acc = acc * y + float(c)
    assert type(p(y)) is float
    assert p(y) == acc or (math.isnan(acc) and math.isnan(p(y)))


@settings(max_examples=200, deadline=None)
@given(a=_coeffs, b=_coeffs)
def test_divmod_matches_long_division(a, b):
    p, q = Poly(a), Poly(b)
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(p, q)
        return
    qq, rr = divmod(p, q)
    for r in (qq, rr):
        _check_invariant(r)
    assert (qq.coeffs, rr.coeffs) == euclid_divmod(_trim(a), _trim(b))
    assert p // q == qq and p % q == rr


@settings(max_examples=150, deadline=None)
@given(g=_small, a=_small, b=_small)
def test_gcd_is_the_monic_euclid_gcd(g, a, b):
    # a common factor g makes the gcd non-trivial in most examples
    p, q = Poly(g) * Poly(a), Poly(g) * Poly(b)
    got = p.gcd(q)
    _check_invariant(got)
    assert got.coeffs == euclid_gcd(p.coeffs, q.coeffs)
    assert got == q.gcd(p)
    assert not got or got.leading() == 1


def test_the_gcd_runs_a_primitive_remainder_sequence(monkeypatch):
    # each divisor of the sequence is primitive, so its coefficients stay
    # the size of the gcd's instead of growing as lead(b)^deg per step
    divisors = []
    pdiv = poly._pdiv

    def recorded(a, b):
        divisors.append(b)
        return pdiv(a, b)
    monkeypatch.setattr(poly, "_pdiv", recorded)
    g = Poly([F(1, 3), F(-2, 5), 1])
    p = g * Poly([F(7, 2), 0, F(-1, 9), F(5, 4), 3, F(2, 7)])
    q = g * Poly([F(-3, 8), F(11, 3), 0, F(4, 5), 1])
    assert p.gcd(q) == g
    assert len(divisors) >= 4
    assert all(math.gcd(*b) == 1 for b in divisors)


def _power_sum(cs, x):
    """sum c_j x^j, each power taken whole in Fractions."""
    return sum((F(c) * F(x) ** j for j, c in enumerate(cs)), F(0))


_huge = st.integers(-10**40, 10**40)
_point = st.one_of(st.integers(-50, 50), _huge, _fraction,
                   st.builds(F, _huge, st.integers(1, 10**40)))


@settings(max_examples=200, deadline=None)
@given(a=_coeffs, x=_point)
@example(a=[], x=F(-7, 3))                  # the zero polynomial
@example(a=[F(5, 6)], x=10**40)             # a constant at a huge int
@example(a=[0, 0, F(-1, 3)], x=F(-9, 1))    # denominator 1
def test_exact_evaluation_is_the_power_sum(a, x):
    p, want = Poly(a), _power_sum(_trim(a), x)
    n, m = F(x).numerator, F(x).denominator
    h, s = p.at_ratio(n, m)
    assert s == p._d * m ** max(p.degree, 0)
    assert F(h, s) == want
    assert type(p(x)) is F and p(x) == want


@given(a=_coeffs, N=st.integers(1, 2**20))
def test_int_scaled_matches_the_lcm_formula(a, N):
    assert _int_scaled(Poly(a), N) == _lcm_scaled(_trim(a), N)


def test_normal_form_edge_cases():
    zero = Poly([0, F(0), 0.0])
    assert (zero._a, zero._d, zero.coeffs, zero.degree) == ((), 1, (), -1)
    assert Poly([F(2, 4), F(-3, 6)])._a == (1, -1)
    assert Poly([F(2, 4), F(-3, 6)])._d == 2
    assert Poly([0.5, 0.25]) == Poly([F(1, 2), F(1, 4)])
    p = Poly([F(1, 3), 0, F(-2, 9)])
    assert (p * 0).is_zero() and (p - p).is_zero() and (p * 0)._d == 1
    assert Poly([6]) * F(1, 6) == Poly([1])
    assert p.gcd(Poly([])) == p * F(-9, 2)
    assert Poly([]).gcd(Poly([])) == Poly([])
    assert Poly([5]).gcd(p) == Poly([1])
    assert p.compose(Poly([])) == Poly([F(1, 3)])
    assert Poly([7]).compose(p) == Poly([7])
