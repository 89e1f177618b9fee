"""Exact univariate polynomials over the rationals, held as integers over one
denominator so that their arithmetic runs over Z, plus real-root isolation
by Descartes' rule of signs with bisection.  One integer kernel on a grid,
`_root_cells`, serves both `isolate_roots` and the exact grid maxima.
Everything downstream (charts, resultants, point enumeration) leans on this
module for the cases where the bounds demand exactness."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable

import numpy as np

from .errors import PreconditionFailed

_ZERO = Fraction(0)


def _fr(x) -> Fraction:
    if isinstance(x, (Fraction, int, float, str)):
        return x if isinstance(x, Fraction) else Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to Fraction")


def _imul(a, b) -> list:
    """The product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b, i):
            out[j] += x * y
    return out


def _pdiv(a, b):
    """(q, r, s) with s a = q b + r over Z, deg r < deg b: pseudo-division
    that scales by lead(b) only where a quotient term is not an integer."""
    m, lead, r, s = len(b) - 1, b[-1], list(a), 1
    q = [0] * max(0, len(r) - m)
    for k in range(len(r) - 1 - m, -1, -1):
        if c := r[k + m]:
            if (g := abs(lead) // math.gcd(c, lead)) > 1:
                r, q, s = [x * g for x in r], [x * g for x in q], s * g
            q[k] = f = c * g // lead
            for i, y in enumerate(b, k):
                r[i] -= f * y
    return q, r[:m], s


def _trim(a: list) -> list:
    """a without trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: list) -> list:
    """a without trailing zeros, over the gcd of its entries."""
    g = math.gcd(*_trim(a))
    return [x // g for x in a] if g > 1 else a


class Poly:
    """Dense polynomial over Q, low degree first: (a_0 + ... + a_n x^n) / d
    with integers a_j, d > 0, gcd(a_0, ..., a_n, d) = 1 and a_n != 0, so d is
    the lcm of the reduced denominators and equal polynomials have equal
    (a, d).  `coeffs`, the Fractions a_j / d, is built on first read."""

    __slots__ = ("_a", "_d", "_c", "_np")

    def __init__(self, coeffs: Iterable, _d: int = None):
        """Poly(cs) from rationals; Poly(ints, _d=d) is ints / d, d != 0."""
        if _d is None:
            cs = [_fr(c) for c in coeffs]
            _d = math.lcm(*(c.denominator for c in cs))
            coeffs = [c.numerator * (_d // c.denominator) for c in cs]
        a = _primitive([_d, *coeffs] if _d > 0
                       else [-_d, *(-x for x in coeffs)])
        self._d, self._a, self._c, self._np = a[0], tuple(a[1:]), None, None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    @staticmethod
    def affine(a, b) -> "Poly":
        """a*x + b"""
        return Poly([b, a])

    # -- basic queries --------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        if self._c is None:
            self._c = tuple(Fraction(a, self._d) for a in self._a)
        return self._c

    @property
    def degree(self) -> int:
        return len(self._a) - 1

    def is_zero(self) -> bool:
        return not self._a

    def __bool__(self):
        return bool(self._a)

    def leading(self) -> Fraction:
        return Fraction(self._a[-1], self._d) if self._a else _ZERO

    def __eq__(self, other):
        return (isinstance(other, Poly) and self._a == other._a
                and self._d == other._d)

    def __hash__(self):
        return hash((self._a, self._d))

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        m = math.lcm(self._d, other._d)
        s, t = m // self._d, m // other._d
        return Poly([x * s + y * t for x, y in
                     zip_longest(self._a, other._a, fillvalue=0)], _d=m)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-x for x in self._a], _d=self._d)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else -_fr(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = other if isinstance(other, Poly) else Poly.const(other)
        return Poly(_imul(self._a, other._a), _d=self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return math.prod([self] * n, start=Poly([1]))

    def divmod(self, other: "Poly"):
        """Division with remainder over Q: pseudo-division over Z, one scale."""
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        q, r, s = _pdiv(self._a, other._a)
        return (Poly([x * other._d for x in q], _d=s * self._d),
                Poly(r, _d=s * self._d))

    __divmod__ = divmod

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd (0 for two zeros), by the primitive remainder
        sequence over Z (Collins, J. ACM 14, 1967; Brown & Traub 1971)."""
        a, b = _primitive(list(self._a)), _primitive(list(other._a))
        while b:
            a, b = b, _primitive(_pdiv(a, b)[1])
        return Poly(a, _d=a[-1]) if a else Poly([])

    # -- calculus -------------------------------------------------------------

    def deriv(self) -> "Poly":
        return Poly(_ideriv(self._a), _d=self._d)

    def derivs(self, order: int) -> list:
        out = [self]
        for _ in range(order):
            out.append(out[-1].deriv())
        return out

    # -- evaluation -----------------------------------------------------------

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.eval_array(x)
        if isinstance(x, (Fraction, int)):
            return Fraction(*self.at_ratio(x.numerator, x.denominator))
        acc = 0.0
        for c in reversed(self.as_float_coeffs().tolist()):
            acc = acc * x + c
        return acc

    def at_ratio(self, n: int, m: int):
        """(h, s) with p(n/m) = h/s, for integers n and m > 0: homogeneous
        Horner over Z, h = sum a_j n^j m^(deg-j) and s = d m^deg."""
        a = self._a
        acc, mk = (a[-1] if a else 0), 1
        for c in a[-2::-1]:
            mk *= m
            acc = acc * n + c * mk
        return acc, self._d * mk

    def as_float_coeffs(self) -> np.ndarray:
        """a_j / d in floats (rounded as float() of the reduced Fraction)."""
        if self._np is None:
            try:
                self._np = np.array([a / self._d for a in self._a], float)
            except OverflowError:
                raise PreconditionFailed(
                    "a coefficient is outside the float range") from None
        return self._np

    def eval_array(self, xs: np.ndarray):
        cs = self.as_float_coeffs()
        acc = np.full_like(xs, cs[-1] if len(cs) else 0.0)
        for c in cs[-2::-1]:
            acc = acc * xs + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)), exact: with self = a/d and inner = b/e, Horner
        over Z gives sum a_j b^j e^(n-j), put over d e^n once."""
        a, b, e = self._a, inner._a, inner._d
        acc, ep = list(a[-1:]), 1
        for c in a[-2::-1]:
            ep *= e
            acc = _imul(acc, b) or [0]
            acc[0] += c * ep
        return Poly(acc, _d=self._d * ep)


_ONE = Poly([1])


# -- real roots: one integer Descartes kernel ---------------------------------

def _int_scaled(p: Poly, N: int):
    """Integer data for gcd-free grid evaluation: D_j = a_j*N^(n-j) over
    d*N^n, so p(i/N) = Horner(D, i) / (d * N^n)."""
    return _int_scaled_list(p._a, N) or [0], p._d * N ** max(p.degree, 0)


def _int_scaled_list(A, N: int) -> list:
    """A_j N^(n-j), n = len(A) - 1: the integers with
    Horner(., i) = N^n A(i/N)."""
    n = len(A) - 1
    return [c * N ** (n - j) for j, c in enumerate(A)]


def _ideriv(D) -> list:
    return [j * c for j, c in enumerate(D)][1:]


def _horner_int(D, i):
    acc = D[-1]
    for c in D[-2::-1]:
        acc = acc * i + c
    return acc


def _variations(E, a: int, b: int) -> int:
    """Sign variations of (1+x)^n E((a x + b)/(1+x)) for the integer
    coefficients E and integer ends a < b: the Descartes bound on the roots
    of E in (a, b); a count of 0 or 1 is exact (Collins & Akritas 1976).
    A root of E at a or b only shifts or scales the transform, so it leaves
    the count of the roots inside unchanged."""
    c, w = [], b - a
    for d in reversed(E):                        # E(a + w y)
        c = [a * u + w * v for u, v in zip(c + [0], [0] + c)]
        c[0] += d
    c.reverse()                                  # x^n E(a + w / x)
    n = len(c) - 1
    for i in range(n):                           # Taylor shift x -> x + 1
        for j in range(n - 1, i - 1, -1):
            c[j] += c[j + 1]
    signs = [v > 0 for v in c if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _root_cells(E, a: int, b: int) -> list:
    """Cells for the real roots of the integer polynomial E in (a, b):
    (m, m) for a root at the integer m, else the unit cell (u, u + 1) that
    holds it.  Descartes' rule splits [a, b] at integer midpoints until a
    cell holds at most one root, then sign bisection narrows it to a unit
    cell; a unit cell reached by splitting can hold two or more roots."""
    out = []
    if not any(E):
        return out
    stack = [(a, _horner_int(E, a), b, _horner_int(E, b))]
    while stack:
        a, fa, b, fb = stack.pop()
        v = _variations(E, a, b)
        if v == 0:
            continue
        if b - a == 1:
            out.append((a, b))
            continue
        if v == 1 and (fa or fb):
            # one simple root in (a, b): follow the sign change
            while b - a > 1:
                m = (a + b) // 2
                fm = _horner_int(E, m)
                if fm == 0:
                    a = b = m
                elif ((fa > 0) != (fm > 0)) if fa else ((fb > 0) == (fm > 0)):
                    b, fb = m, fm
                else:
                    a, fa = m, fm
            out.append((a, b))
            continue
        m = (a + b) // 2
        fm = _horner_int(E, m)
        if fm == 0:
            out.append((m, m))
        stack += [(a, fa, m, fm), (m, fm, b, fb)]
    return out


def _grid_candidates(N: int, *cell_lists) -> list:
    """The indices among 0..N where max |P(i)| can sit when P is monotone
    between consecutive real roots of integer polynomials, given the
    `_root_cells` of each on (0, N): the ends of those stretches, so 0, 1,
    N - 1, N (1 and N - 1 for a pole at an end), both ends of each unit root
    cell, and m - 1, m, m + 1 for a root at m."""
    idx = {0, 1, N - 1, N}
    for cells in cell_lists:
        for u, v in cells:
            idx.update((u - 1, u, u + 1) if u == v else (u, v))
    return sorted(i for i in idx if 0 <= i <= N)


def max_abs_on_rational_grid(p: Poly, N: int) -> Fraction:
    """max |p(i/N)| over i = 0..N, exact and in integers: the order-0 case
    of `ratio_chain_maxima`.  It is still a grid sample, not a bound over
    [0, 1]."""
    return ratio_chain_maxima(p, _ONE, (0,), 0, N)[0]


def max_abs_ratio_on_grid(num: Poly, den: Poly, N: int):
    """max |num(i/N) / den(i/N)| over i = 0..N, exact and in integers, or
    math.inf where den has a real root in [0, 1]: the order-0 case of
    `ratio_chain_maxima`."""
    return ratio_chain_maxima(num, den, (0,), 0, N)[0]


def ratio_chain_maxima(num: Poly, den: Poly, orders, shift, N: int) -> dict:
    """{i: max |f^(i)(j/N)| over j = 0..N} for f = num/den and i in orders,
    less `shift` at order 0: exact Fractions, or math.inf where f^(i) has a
    pole in [0, 1].  Each max equals the exact scan of every grid point.

    Orders >= 1 read the chain of n/d, num/den in lowest terms:
    f^(i) = N_i/(d h^i) (`rational_deriv`), kept here as integer lists
    over the one constant d._d/n._d.  Since d h^i has the real roots of d,
    one pole test on d serves every order >= 1; order 0 reads inf at a real
    root in [0, 1] of den as given, even one that n/d cancels.  Off the
    poles f^(i) is monotone between the real roots of its derivative's
    numerator N_(i+1), so the max sits at the grid ends or beside the
    root cells of N_(i+1); there d and h are evaluated once per grid index
    and d h^i is formed from their values."""
    n, d = lowest_terms(num, den)
    if 0 in orders:
        pole0 = _pole_in_unit(den, N)
        pole = pole0 and (d == den or _pole_in_unit(d, N))
    else:
        pole0, pole = False, _pole_in_unit(d, N)
    out = {i: math.inf for i in orders if (pole0 if i == 0 else pole)}
    todo = [i for i in orders if i not in out]
    if not todo:
        return {i: out[i] for i in orders}
    H, U = _chain_basis(d)
    B, chain = d._a, [n._a]
    for i in range(max(todo) + 1):
        chain.append(_chain_next(chain[-1], H, U, i))
    Bs, Hs = _int_scaled_list(B, N), _int_scaled_list(H, N)
    bvals, hvals = {}, {}
    for i in todo:
        P, kn, kd = chain[i], d._d, n._d       # f^(i) = (kn/kd) P/(d h^i)
        if i == 0 and shift:
            s = _fr(shift)                      # f - s = P'/(kd s_den d)
            P = _trim([x - y for x, y in zip_longest(
                [x * kn * s.denominator for x in P],
                [x * kd * s.numerator for x in B], fillvalue=0)])
            kn, kd = 1, kd * s.denominator
        if not P:
            out[i] = _ZERO
            continue
        Ps = _int_scaled_list(P, N)
        bp, bq = 0, 1
        for j in _grid_candidates(N, _root_cells(
                _int_scaled_list(chain[i + 1], N), 0, N)):
            if j not in bvals:
                bvals[j], hvals[j] = _horner_int(Bs, j), _horner_int(Hs, j)
            p, q = abs(_horner_int(Ps, j)), abs(bvals[j] * hvals[j] ** i)
            if p * bq > bp * q:
                bp, bq = p, q
        e = len(B) - 1 + i * (len(H) - 1) - (len(P) - 1)  # N^e from scaling
        out[i] = Fraction(kn * bp * N ** max(e, 0), kd * bq * N ** max(-e, 0))
    return {i: out[i] for i in orders}


def _pole_in_unit(den: Poly, N: int) -> bool:
    """Whether den has a real root in [0, 1] (the zero polynomial has):
    at 0 or 1, at a grid point i/N, or in a unit cell of `_root_cells`,
    confirmed by `isolate_roots` since two sign variations need not be a
    root."""
    D = _int_scaled(den, N)[0]
    return (not D[0] or not _horner_int(D, N)
            or any(u == v or isolate_roots(den, Fraction(u, N), Fraction(v, N))
                   for u, v in _root_cells(D, 0, N)))


# -- rational derivative chains -----------------------------------------------

def lowest_terms(num: Poly, den: Poly):
    """(num, den) over their monic gcd, so den keeps its leading
    coefficient; a constant den takes no gcd."""
    if den.degree > 0:
        g = num.gcd(den)
        if g.degree > 0:
            return num // g, den // g
    return num, den


def _chain_basis(d: Poly):
    """(H, U) for d in lowest terms: integer lists over one denominator e
    with h = H/e = d/g and u = U/e = d'/g, g = gcd(d, d'); h = 1 and u = 0
    for a constant d."""
    if d.degree <= 0:
        return [1], []
    dp = d.deriv()
    g = d.gcd(dp)
    h, u = (d // g, dp // g) if g.degree > 0 else (d, dp)
    m = math.lcm(h._d, u._d)
    return [x * (m // h._d) for x in h._a], [x * (m // u._d) for x in u._a]


def _chain_next(A, H, U, i: int) -> list:
    """A' H - A (U + i H'): the numerator N_(i+1) of f^(i+1) from N_i = A,
    both over the one constant of `_chain_basis` (the e of h = H/e and
    u = U/e cancels between f^(i+1)'s numerator and d h^(i+1))."""
    V = [x + i * y for x, y in zip_longest(U, _ideriv(H), fillvalue=0)]
    return _trim([x - y for x, y in zip_longest(
        _imul(_ideriv(A), H), _imul(A, V), fillvalue=0)])


def rational_deriv(num: Poly, den: Poly, step=None):
    """(num', den', step') with num'/den' = (num/den)' in lowest terms and
    lead(den') = lead(den)^2 (den' = 1 for a constant den).

    A chain takes one gcd in total, not one per order.  With n/d in lowest
    terms, g = gcd(d, d'), h = d/g and u = d'/g, the i-th derivative is
    N_i/(d h^i), where N_0 = n and N_(i+1) = N_i' h - N_i (u + i h').  A pole
    of order m has order m + i in f^(i), so every order is again in lowest
    terms, and one scalar restores the normalization.  step is None for an
    f not yet reduced: the first step reduces num/den and takes h and u
    (`_chain_basis`); each step returns them with its order i + 1 for the
    next.  The recurrence runs on the integer coefficient lists of num and
    den, so each order builds just its two Polys."""
    if den.degree == 0:
        return (Poly([x * den._d for x in _ideriv(num._a)],
                     _d=num._d * den._a[0]), _ONE, None)
    if step is None:
        num, den = lowest_terms(num, den)
        step = (*_chain_basis(den), 0)
    H, U, i = step
    s, t = den._a[-1], den._d * H[-1]
    return (Poly([x * s for x in _chain_next(num._a, H, U, i)],
                 _d=num._d * t),
            Poly([x * s for x in _imul(den._a, H)], _d=den._d * t),
            (H, U, i + 1))


def squarefree_part(p: Poly) -> Poly:
    return p // p.gcd(p.deriv()) if p.degree > 0 else p


ROOT_WIDTH = Fraction(1, 2**40)      # width of a refined isolating interval


def isolate_roots(p: Poly, lo, hi):
    """Disjoint isolating intervals, one per distinct real root of p in [lo, hi].

    Endpoint roots, and roots met at a bisection midpoint, are reported as
    degenerate [r, r] intervals.  The others are open intervals bisected
    down to width <= ROOT_WIDTH so callers can use midpoints as subdivision
    points; beside a root closer than that, one can end where the next
    interval begins.

    Every bisection point lies on the grid lo + w*i, i = 0..N, with N the
    least power of two that makes w = (hi - lo)/N <= ROOT_WIDTH: a unit cell
    of `_root_cells` is a refined interval.  A cell that holds two roots is
    searched again on the grid of step w/2, E_2M(i) = 2^n E_M(i/2).
    """
    lo, hi = _fr(lo), _fr(hi)
    if p.is_zero():
        raise ValueError("cannot isolate roots of the zero polynomial")
    if p.degree <= 0 or hi <= lo:
        return []
    N = 1 << (math.ceil((hi - lo) / ROOT_WIDTH) - 1).bit_length()
    w = (hi - lo) / N
    E = _int_scaled(squarefree_part(p).compose(Poly.affine(w, lo)), 1)[0]
    out = [(x, x) for i, x in ((0, lo), (N, hi)) if not _horner_int(E, i)]
    todo = [(E, 1, 0, N)]                # E on the grid of step w/s, (a, b)
    while todo:
        E, s, a, b = todo.pop()
        for u, v in _root_cells(E, a, b):
            if u < v and _variations(E, u, v) > 1:
                n = len(E) - 1
                todo.append(([c << (n - j) for j, c in enumerate(E)],
                             2 * s, 2 * u, 2 * v))
            else:
                out.append((lo + w * u / s, lo + w * v / s))
    out.sort()
    return out


# -- numeric root finding (complex) -------------------------------------------

def complex_roots(p: Poly):
    """All complex roots via the companion matrix, Newton-polished, with a
    residual-based error radius per root."""
    cs = p.as_float_coeffs()
    if len(cs) <= 1:
        return []
    rts = np.roots(cs[::-1])
    dp = p.deriv()
    out = []
    for z in rts:
        z = complex(z)
        for _ in range(8):
            d = complex(dp(z))
            if d == 0:
                break
            step = complex(p(z)) / d
            if abs(step) < 1e-16 * max(1.0, abs(z)):
                z -= step
                break
            z -= step
        resid = abs(complex(p(z)))
        d = abs(complex(dp(z)))
        radius = p.degree * resid / d if d > 1e-300 else 1e-6
        radius = max(radius, 1e-14 * max(1.0, abs(z)))
        out.append((z, radius))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


# -- exact linear algebra -----------------------------------------------------

def bareiss(rows):
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) over Z or
    Q[x]: entries are all ints or all Polys, and each update, a 2x2 minor, is
    divided exactly by the previous pivot.  Returns (rank, det); det is the
    determinant of a square matrix, 0 when it is singular."""
    m = [list(r) for r in rows]
    cols = len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for col in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        top = m[rank]
        for row in m[rank + 1:]:
            for j in range(col + 1, cols):
                num = row[j] * top[col] - row[col] * top[j]
                if rank:
                    num, rem = divmod(num, prev)
                    assert not rem, "Bareiss exact division failed"
                row[j] = num
        prev = top[col]
        rank += 1
    return rank, (sign * prev if rank == len(m) == cols else 0)
