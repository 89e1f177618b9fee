"""Bivariate polynomials over Q: evaluation, partials, Sylvester resultants,
and the rational-function calculus needed for implicit differentiation of
algebraic branches of P(x, y) = 0."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateInY
from .poly import Poly, _fr, gauss_eliminate


class BivarPoly:
    """Sparse bivariate polynomial {(i, j): c} meaning sum c * x^i * y^j."""

    __slots__ = ("coeffs", "degx", "degy", "_float_terms")

    def __init__(self, coeffs):
        cs = {}
        for (i, j), c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            c = _fr(c)
            if c != 0:
                cs[(int(i), int(j))] = cs.get((int(i), int(j)), Fraction(0)) + c
        cs = {k: v for k, v in cs.items() if v != 0}
        self.coeffs = cs
        self.degx = max((i for i, _ in cs), default=-1)
        self.degy = max((j for _, j in cs), default=-1)
        self._float_terms = None

    def float_terms(self) -> list:
        """[(i, j, float(c))], converted once per polynomial."""
        if self._float_terms is None:
            self._float_terms = [(i, j, float(c))
                                 for (i, j), c in self.coeffs.items()]
        return self._float_terms

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, BivarPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        return f"BivarPoly({self.coeffs})"

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return BivarPoly(out)

    def __neg__(self):
        return BivarPoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BivarPoly):
            c = _fr(other)
            return BivarPoly({k: v * c for k, v in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def dx(self):
        return BivarPoly({(i - 1, j): i * c for (i, j), c in self.coeffs.items() if i})

    def dy(self):
        return BivarPoly({(i, j - 1): j * c for (i, j), c in self.coeffs.items() if j})

    def __call__(self, x, y):
        """Exact at Fraction/int arguments; otherwise in float or complex
        arithmetic over float_terms()."""
        if isinstance(x, (Fraction, int)) and isinstance(y, (Fraction, int)):
            terms = ((i, j, c) for (i, j), c in self.coeffs.items())
        else:
            terms = self.float_terms()
        acc = 0
        for i, j, c in terms:
            acc = acc + c * x**i * y**j
        return acc

    def y_poly_at(self, x) -> Poly:
        """P(x, .) as a univariate polynomial in y, exact for rational x."""
        cs = [Fraction(0)] * (self.degy + 1)
        for (i, j), c in self.coeffs.items():
            cs[j] += c * _fr(x) ** i
        return Poly(cs)

    def y_poly_coeffs_complex(self, x: complex) -> np.ndarray:
        cs = np.zeros(self.degy + 1, dtype=complex)
        for i, j, c in self.float_terms():
            cs[j] += c * x**i
        return cs

    def coeff_of_y(self, j) -> Poly:
        """Coefficient of y^j, as a polynomial in x."""
        cs = {}
        for (i, jj), c in self.coeffs.items():
            if jj == j:
                cs[i] = c
        n = max(cs, default=-1)
        return Poly([cs.get(i, Fraction(0)) for i in range(n + 1)])

    def leading_coeff_in_y(self) -> Poly:
        return self.coeff_of_y(self.degy)

    def swap_xy(self) -> "BivarPoly":
        return BivarPoly({(j, i): c for (i, j), c in self.coeffs.items()})

    def max_abs_on_unit_square(self, n=64) -> float:
        xs = np.linspace(-1.0, 1.0, n)
        X, Y = np.meshgrid(xs, xs)
        acc = np.zeros_like(X)
        for i, j, c in self.float_terms():
            acc += c * X**i * Y**j
        return float(np.max(np.abs(acc)))


def sylvester_matrix(p: Poly, q: Poly):
    """Sylvester matrix of two univariate polynomials (entries Fractions)."""
    m, n = p.degree, q.degree
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for k in range(n):
        rows.append([Fraction(0)] * k + pc + [Fraction(0)] * (size - k - len(pc)))
    for k in range(m):
        rows.append([Fraction(0)] * k + qc + [Fraction(0)] * (size - k - len(qc)))
    return rows


def det_bareiss_poly(mat):
    """Fraction-free Bareiss determinant of a matrix with Poly entries."""
    n = len(mat)
    if n == 0:
        return Poly([1])
    m = [row[:] for row in mat]
    sign = 1
    prev = Poly([1])
    for k in range(n - 1):
        if m[k][k].is_zero():
            for r in range(k + 1, n):
                if not m[r][k].is_zero():
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return Poly([])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                q, r = num.divmod(prev)
                assert r.is_zero(), "Bareiss exact division failed"
                m[i][j] = q
        prev = m[k][k]
    d = m[n - 1][n - 1]
    return d if sign == 1 else -d


def resultant_y(P: BivarPoly, Q: BivarPoly) -> Poly:
    """Res_y(P, Q) as a polynomial in x, exact."""
    if P.degy <= 0 or Q.degy < 0:
        raise DegenerateInY("resultant in y needs positive y-degree")
    dp, dq = P.degy, Q.degy
    size = dp + dq
    pc = [P.coeff_of_y(dp - k) for k in range(dp + 1)]
    qc = [Q.coeff_of_y(dq - k) for k in range(dq + 1)]
    rows = []
    for k in range(dq):
        row = [Poly([]) for _ in range(size)]
        for t, c in enumerate(pc):
            row[k + t] = c
        rows.append(row)
    for k in range(dp):
        row = [Poly([]) for _ in range(size)]
        for t, c in enumerate(qc):
            row[k + t] = c
        rows.append(row)
    return det_bareiss_poly(rows)


def resultant_y_interpolated(P: BivarPoly, Q: BivarPoly) -> Poly:
    """Independent resultant oracle: evaluate Res_y at many rational x by a
    scalar Sylvester determinant, then Lagrange-interpolate."""
    from .poly import lagrange_interpolate

    bound = P.degx * Q.degy + Q.degx * P.degy + 1
    pts = []
    x = Fraction(0)
    while len(pts) < bound:
        py, qy = P.y_poly_at(x), Q.y_poly_at(x)
        if py.degree == P.degy and qy.degree == Q.degy:
            pivots, sign = gauss_eliminate(sylvester_matrix(py, qy))
            full = len(pivots) == P.degy + Q.degy
            pts.append((x, sign * math.prod(pivots) if full else Fraction(0)))
        x += 1
    return lagrange_interpolate(pts)


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
