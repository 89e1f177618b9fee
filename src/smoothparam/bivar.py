"""Bivariate polynomials over Q: evaluation, partials, resultants in y (the
Sylvester determinant over Q[x] by `poly.bareiss`), and the rational-function
calculus for implicit differentiation of algebraic branches of P(x, y) = 0.

A `BivarPoly` is its rows, the coefficients of y^0, y^1, ... as `Poly`s in
x, so its exact arithmetic runs on Poly's integers.  Its float evaluations
sum the terms in one order, decreasing powers of y and then of x, so equal
polynomials give equal bits however their terms were spelled.

Array evaluations give, point for point, the bits of the one-point float or
complex evaluation.  numpy's complex multiply is fused (FMA) on CPUs that
have it and its complex division and `**` use other formulas, so off the
real axis they round differently from Python's complex arithmetic; complex
arrays are therefore worked on as (real, imag) pairs of float arrays, with
Python's formulas spelled out in `_mul`, `_pow` and `_pydiv`.  `_mul`,
`_pow` and `y_poly_coeffs` also take 1-tuples (real,) at real x, equal to
the pair form but at zeros and overflows (`funcs.BranchTracker._correct`)."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

import numpy as np

from .errors import DegenerateInY
from .poly import Poly, _fr, _imul, _trim, bareiss

_ZERO = Poly([])


def _mul(a, b):
    """a * b on (real, imag) pairs as Python's complex product, or 1-tuples."""
    if len(a) == 1:
        return (a[0] * b[0],)
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _pow(z, n):
    """z ** n on a (real, imag) pair or a 1-tuple (real,) for an int
    0 <= n <= 100, by Python's square-and-multiply from 1."""
    r, p = (np.ones_like(z[0]), np.zeros_like(z[0]))[:len(z)], z
    while n:
        if n & 1:
            r = _mul(r, p)
        n >>= 1
        if n:
            p = _mul(p, p)
    return r


def _pydiv(a, b):
    """a / b on (real, imag) pairs, rounded as Python's complex division
    (Smith's method); b must be nonzero."""
    b = np.asarray(b[0], dtype=float), np.asarray(b[1], dtype=float)
    big = np.abs(b[0]) >= np.abs(b[1])
    with np.errstate(all="ignore"):     # the branch np.where drops
        rat = np.where(big, b[1] / b[0], b[0] / b[1])
        den = np.where(big, b[0] + b[1] * rat, b[0] * rat + b[1])
        return (np.where(big, a[0] + a[1] * rat, a[0] * rat + a[1]) / den,
                np.where(big, a[1] - a[0] * rat, a[1] * rat - a[0]) / den)


def _from_rows(rows) -> "BivarPoly":
    """The BivarPoly sum_j rows[j](x) y^j, trailing zero rows dropped."""
    p = BivarPoly.__new__(BivarPoly)
    p._set(rows)
    return p


def _int_rows(p: "BivarPoly"):
    """(rows, m): p's rows as integer lists over their lcm denominator m."""
    m = math.lcm(*(r._d for r in p.rows))
    return [[x * (m // r._d) for x in r._a] for r in p.rows], m


def _pack(re, im):
    """The complex array with parts re and im, signed zeros kept."""
    out = np.empty(np.broadcast(re, im).shape, dtype=complex)
    out.real, out.imag = re, im
    return out


class BivarPoly:
    """sum_j rows[j](x) y^j over Q, the last row nonzero, built from {(i, j):
    c} (or ((i, j), c) pairs, summed) meaning sum c x^i y^j."""

    __slots__ = ("rows", "degx", "degy", "_float_terms")

    def __init__(self, coeffs):
        cs = {}
        for (i, j), c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            cs[int(i), int(j)] = cs.get((int(i), int(j)), 0) + _fr(c)
        m = max((i for i, _ in cs), default=-1) + 1
        n = max((j for _, j in cs), default=-1) + 1
        self._set(Poly([cs.get((i, j), 0) for i in range(m)])
                  for j in range(n))

    def _set(self, rows):
        self.rows = tuple(_trim(list(rows)))
        self.degx = max((r.degree for r in self.rows), default=-1)
        self.degy = len(self.rows) - 1
        self._float_terms = None

    def terms(self) -> list:
        """[(i, j, c)], the nonzero terms c x^i y^j in decreasing powers of
        y and then of x."""
        return [(i, j, c) for j in range(self.degy, -1, -1)
                for i, c in reversed(list(enumerate(self.rows[j].coeffs)))
                if c]

    def float_terms(self) -> list:
        """[(i, j, float(c))] in the order of terms(), converted once per
        polynomial."""
        if self._float_terms is None:
            self._float_terms = [(i, j, float(c)) for i, j, c in self.terms()]
        return self._float_terms

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.rows == other.rows

    def __repr__(self):
        return f"BivarPoly({ {(i, j): c for i, j, c in self.terms()} })"

    def __add__(self, other):
        return _from_rows(a + b for a, b in
                          zip_longest(self.rows, other.rows, fillvalue=_ZERO))

    def __neg__(self):
        return _from_rows(-r for r in self.rows)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BivarPoly):
            return _from_rows(r * _fr(other) for r in self.rows)
        if self.is_zero() or other.is_zero():
            return _from_rows(())
        # integer sums over one denominator: one Poly (one gcd) per row
        (a, m), (b, n) = _int_rows(self), _int_rows(other)
        out = [[0] * (self.degx + other.degx + 1) for _ in a + b[1:]]
        for j, x in enumerate(a):
            for k, y in enumerate(b, j):
                for i, c in enumerate(_imul(x, y)):
                    out[k][i] += c
        return _from_rows(Poly(r, _d=m * n) for r in out)

    __rmul__ = __mul__

    def dx(self):
        return _from_rows(r.deriv() for r in self.rows)

    def dy(self):
        return _from_rows(r * j for j, r in enumerate(self.rows[1:], 1))

    def __call__(self, x, y):
        """Exact at Fraction/int arguments; otherwise in float or complex
        arithmetic over float_terms()."""
        if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
            return self.y_poly_at(x)(y)
        acc = 0
        for i, j, c in self.float_terms():
            acc = acc + c * x**i * y**j
        return acc

    def y_poly_at(self, x) -> Poly:
        """P(x, .) as a univariate polynomial in y, exact for rational x."""
        return Poly([r(_fr(x)) for r in self.rows])

    def y_poly_coeffs(self, z) -> tuple:
        """Coefficients of P(x, .), lowest degree first, at each point of x
        (a pair or 1-tuple of float arrays) in its form, parts of shape
        (degy + 1, *x.shape): `cs[j] += c * x**i` from +0.0, as in Python."""
        out, pw = tuple(np.zeros((self.degy + 1,) + np.shape(z[0]))
                        for _ in z), {}
        for i, j, c in self.float_terms():
            if i not in pw:
                pw[i] = _pow(z, i)
            for o, t in zip(out, _mul((c, 0.0)[:len(z)], pw[i])):
                o[j] += t
        return out

    def eval_array(self, x, y):
        """P at each point of the arrays x and y, both real or both complex,
        with the bits of __call__ at that point: float pow for real input,
        Python's complex arithmetic for complex input."""
        x, y = np.asarray(x), np.asarray(y)
        if np.iscomplexobj(x) or np.iscomplexobj(y):
            xz, yz = (x.real, x.imag), (y.real, y.imag)
            re = im = np.zeros(np.broadcast(x, y).shape)
            for i, j, c in self.float_terms():
                t = _mul(_mul((c, 0.0), _pow(xz, i)), _pow(yz, j))
                re, im = re + t[0], im + t[1]
            return _pack(re, im)
        acc = np.zeros(np.broadcast(x, y).shape)
        for i, j, c in self.float_terms():
            acc = acc + c * np.float_power(x, i) * np.float_power(y, j)
        return acc

    def swap_xy(self) -> "BivarPoly":
        return BivarPoly({(j, i): c for i, j, c in self.terms()})

    def max_abs_on_unit_square(self, n=64) -> float:
        xs = np.linspace(-1.0, 1.0, n)
        X, Y = np.meshgrid(xs, xs)
        acc = np.zeros_like(X)
        for i, j, c in self.float_terms():
            acc += c * X**i * Y**j
        return float(np.max(np.abs(acc)))


def resultant_y(P: BivarPoly, Q: BivarPoly) -> Poly:
    """Res_y(P, Q) as a polynomial in x, exact: the determinant of the
    Sylvester matrix over Q[x] by fraction-free elimination."""
    if P.degy <= 0 or Q.degy < 0:
        raise DegenerateInY("resultant in y needs positive y-degree")
    rows = []
    for F, shifts in ((P, Q.degy), (Q, P.degy)):
        rows += [[_ZERO] * k + list(F.rows[::-1]) + [_ZERO] * (shifts - 1 - k)
                 for k in range(shifts)]
    return bareiss(rows)[1] or _ZERO


class BivarRational:
    """num/den with BivarPoly parts; closed under the implicit-derivative
    operator d/dx = d_x + g'(x) d_y along a branch y = g(x) of P = 0, where
    g' = -P_x / P_y."""

    __slots__ = ("num", "den")

    def __init__(self, num: BivarPoly, den: BivarPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    @staticmethod
    def from_poly(p: BivarPoly):
        return BivarRational(p, BivarPoly({(0, 0): 1}))

    def implicit_deriv(self, P: BivarPoly) -> "BivarRational":
        px, py = P.dx(), P.dy()
        # d(num/den) = (num' den - num den')/den^2 with d = d_x - (Px/Py) d_y
        def d(q: BivarPoly):
            # returns (a, b) meaning (a + b * (-Px/Py)) -> combined over Py
            return q.dx() * py - q.dy() * px  # times 1/Py

        n = d(self.num) * self.den - self.num * d(self.den)
        return BivarRational(n, self.den * self.den * py)

    def __call__(self, x, y):
        return self.num(x, y) / self.den(x, y)

    def eval_array(self, x, y):
        """num/den at each point of the arrays x and y, both real or both
        complex, with the bits of __call__ there; a zero denominator raises
        ZeroDivisionError, as __call__ does."""
        num, den = self.num.eval_array(x, y), self.den.eval_array(x, y)
        if np.any(den == 0):
            raise ZeroDivisionError("division by zero")
        if np.iscomplexobj(num):
            return _pack(*_pydiv((num.real, num.imag), (den.real, den.imag)))
        return num / den
