"""Function classes every pipeline consumes: exact rational closed forms,
radical/composition trees, algebraic branches of P(x, y) = 0 tracked by
continuation, and blackboxes with declared zero-count bounds.

Symbolic differentiation is closed on the tree; rational subtrees are kept
collapsed to num/den pairs so high-order derivatives stay cheap and exact.
Each class evaluates through one numeric evaluator, eval_array; `eval` (one
real point, exact for a rational expression at a rational point, failing
closed at a pole or a non-finite value) and `eval_complex` are its
one-point cases."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import reduce

import numpy as np

from .bivar import (BivarPoly, BivarRational, _mul, _pack, _pydiv,
                    resultant_y)
from .errors import (BranchJump, DegenerateInY, EvaluationAtSingularity,
                     FibreOverflow, OrderOverflow, PathNearSingularity,
                     SmoothParamError, ZeroCountMismatch)
from .poly import (Poly, _fr, complex_roots, isolate_roots, lowest_terms,
                   rational_deriv)

EXPR_SIZE_CAP = 200_000              # nodes, symbolic differentiation cap
GRID_POINTS = 4096                   # float sample grid of a sup or a span
BISECT_SAMPLES_PER_UNIT = 4096       # sign-change scan of a non-rational f
CONTINUATION_RESIDUAL = 1e-10        # |P(x, y)| accepted on the curve
CONTINUATION_STEP_FLOOR = 1e-12      # smallest step, times max(1, |x|)
CONTINUATION_CACHE_CAP = 100_000     # real-axis values a tracker caches
CONTINUATION_ROUND_CAP = 1_000       # corrector rounds in one walk
_U = 2.0 ** -53                      # unit roundoff, for the corrector


def _sqrt_exact(v: Fraction):
    """Rational square root of v >= 0 if it exists, else None."""
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class FunctionExpr:
    """Base class.  Subclasses implement eval_array (over a real or complex
    numpy array; the one numeric evaluator) and deriv.  eval_array is
    elementwise, except that a branch reads each row (last axis) of a
    complex array as one continuation path from its seed, so a row's points
    must follow one another closely.  eval and eval_complex are its
    one-point cases."""

    def deriv(self) -> "FunctionExpr":
        raise NotImplementedError

    def eval(self, x):
        """f(x) at one real point: the exact num(x)/den(x) when f is rational
        and x an int or a Fraction, else the one-point case of eval_array.
        It fails closed: a pole, a NaN or an infinite value raises
        EvaluationAtSingularity, and is never returned."""
        rat = self.as_rational()
        if rat is not None and isinstance(x, (int, Fraction)):
            n, m = x.numerator, x.denominator
            hd, sd = rat[1].at_ratio(n, m)
            if hd == 0:
                raise EvaluationAtSingularity(f"pole at {x}")
            hn, sn = rat[0].at_ratio(n, m)
            return Fraction(hn * sd, sn * hd)
        with np.errstate(all="ignore"):
            v = float(self.eval_array(np.array([float(x)]))[0])
        if not math.isfinite(v):
            raise EvaluationAtSingularity(f"value {v} of f at x = {x}")
        return v

    def eval_array(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_complex(self, z):
        """f(z) at one complex point: the one-point case of eval_array."""
        return complex(self.eval_array(np.array([complex(z)]))[0])

    def size(self) -> int:
        return 1

    def as_rational(self):
        """(num, den) Poly pair when the expression is globally rational."""
        return None

    def precompose_poly(self, h: Poly) -> "FunctionExpr":
        """self(h(t)) as a new expression."""
        rat = self.as_rational()
        if rat is not None:
            num, den = rat
            return RationalExpr(num.compose(h), den.compose(h))
        return ComposeExpr(self, RationalExpr(h, Poly([1])))

    def derivative_chain(self, order: int):
        """[f, f', ..., f^(order)], cached on self; each order is the deriv
        of the one before.  For rational f = n/d that is the recurrence of
        `RationalExpr.deriv`: f^(i) = N_i/(d h^i) with h = d/gcd(d, d'), so
        the chain takes gcd(n, d) and gcd(d, d') once, not a gcd per order."""
        chain = getattr(self, "_chain", [self])
        while len(chain) <= order:
            nxt = chain[-1].deriv()
            if nxt.size() > EXPR_SIZE_CAP:
                raise OrderOverflow(
                    f"expression size {nxt.size()} exceeds cap at order {len(chain)}")
            chain.append(nxt)
        self._chain = chain
        return chain[: order + 1]


class RationalExpr(FunctionExpr):
    """num(x)/den(x) with exact rational coefficients."""

    _step = None          # (H, U, i) of an i-th derivative (rational_deriv)

    def __init__(self, num: Poly, den: Poly = None):
        self.num = num
        self.den = den if den is not None else Poly([1])
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")

    def __repr__(self):
        return f"RationalExpr({self.num!r}, {self.den!r})"

    def as_rational(self):
        return (self.num, self.den)

    def size(self):
        return self.num.degree + self.den.degree + 2

    def lowest_terms(self):
        """(num, den) over their gcd; a polynomial, and a derivative from
        `deriv`, are in lowest terms already and take no gcd."""
        if self._step is None:
            return lowest_terms(self.num, self.den)
        return self.num, self.den

    def deriv(self):
        """f' in lowest terms, its den's leading coefficient the square of
        self.den's (a polynomial's derivative has den 1): one step of the
        chain of `poly.rational_deriv`, which takes one gcd for a whole
        chain; each derivative carries the step's data to the next."""
        num, den, step = rational_deriv(self.num, self.den, self._step)
        out = RationalExpr(num, den)
        out._step = step
        return out

    def eval_array(self, xs):
        return self.num.eval_array(xs) / self.den.eval_array(xs)


class SqrtExpr(FunctionExpr):
    def __init__(self, inner: FunctionExpr):
        self.inner = inner

    def size(self):
        return self.inner.size() + 1

    def deriv(self):
        # (sqrt f)' = f' / (2 sqrt f)
        return MulExpr(MulExpr(self.inner.deriv(), PowExpr(self, -1)),
                       Fraction(1, 2))

    def eval_array(self, xs):
        return np.sqrt(self.inner.eval_array(xs))


def _wrap(f):
    """f as an expression: a Poly, or a number c as the degree-0 Poly [c],
    becomes a RationalExpr."""
    if isinstance(f, FunctionExpr):
        return f
    return RationalExpr(f if isinstance(f, Poly) else Poly([f]))


class AddExpr(FunctionExpr):
    def __init__(self, *terms):
        self.terms = [_wrap(t) for t in terms]

    def size(self):
        return 1 + sum(t.size() for t in self.terms)

    def deriv(self):
        return simplify(AddExpr(*[t.deriv() for t in self.terms]))

    def eval_array(self, xs):
        acc = np.zeros_like(xs)
        for t in self.terms:
            acc = acc + t.eval_array(xs)
        return acc


class MulExpr(FunctionExpr):
    def __init__(self, f, g):
        self.f, self.g = _wrap(f), _wrap(g)

    def size(self):
        return 1 + self.f.size() + self.g.size()

    def deriv(self):
        return simplify(AddExpr(MulExpr(self.f.deriv(), self.g),
                                MulExpr(self.f, self.g.deriv())))

    def eval_array(self, xs):
        return self.f.eval_array(xs) * self.g.eval_array(xs)


class PowExpr(FunctionExpr):
    """f ** n for integer n (negative allowed)."""

    def __init__(self, f, n: int):
        self.f, self.n = _wrap(f), int(n)

    def size(self):
        return 1 + self.f.size()

    def deriv(self):
        return simplify(MulExpr(MulExpr(self.n, PowExpr(self.f, self.n - 1)),
                                self.f.deriv()))

    def eval_array(self, xs):
        return self.f.eval_array(xs) ** self.n


class ComposeExpr(FunctionExpr):
    def __init__(self, outer, inner):
        self.outer, self.inner = _wrap(outer), _wrap(inner)

    def size(self):
        return 1 + self.outer.size() + self.inner.size()

    def deriv(self):
        return simplify(MulExpr(ComposeExpr(self.outer.deriv(), self.inner),
                                self.inner.deriv()))

    def eval_array(self, xs):
        return self.outer.eval_array(self.inner.eval_array(xs))


def simplify(e: FunctionExpr) -> FunctionExpr:
    """Collapse rational subtrees into a single num/den pair."""
    if isinstance(e, AddExpr):
        terms = [simplify(t) for t in e.terms]
        rats = [t for t in terms if t.as_rational() is not None]
        rest = [t for t in terms if t.as_rational() is None]
        if rats:
            num, den = Poly([]), Poly([1])
            for t in rats:
                tn, td = t.as_rational()
                num, den = num * td + tn * den, den * td
            combined = RationalExpr(num, den)
            if not rest:
                return combined
            terms = rest + ([] if (num.is_zero()) else [combined])
            if len(terms) == 1:
                return terms[0]
        return AddExpr(*terms)
    if isinstance(e, MulExpr):
        f, g = simplify(e.f), simplify(e.g)
        rf, rg = f.as_rational(), g.as_rational()
        if rf is not None and rg is not None:
            return RationalExpr(rf[0] * rg[0], rf[1] * rg[1])
        if any(r is not None and r[0].is_zero() for r in (rf, rg)):
            return _wrap(0)
        return MulExpr(f, g)
    if isinstance(e, ComposeExpr):
        outer, inner = simplify(e.outer), simplify(e.inner)
        ro, ri = outer.as_rational(), inner.as_rational()
        if ro is not None and ri is not None and ri[1].degree == 0:
            h = ri[0] * (1 / ri[1].coeffs[0])
            return RationalExpr(ro[0].compose(h), ro[1].compose(h))
        return ComposeExpr(outer, inner)
    return e


def scale_shift(f: FunctionExpr, a, b) -> FunctionExpr:
    """a * f + b, one num/den pair when f is rational (`simplify`)."""
    return simplify(AddExpr(MulExpr(a, f), b))


def normalize_values(f: FunctionExpr, lo, hi):
    """(g, norm): g = a * f + b and norm = {"scale": a, "shift": b}, from
    the values of f sampled on [lo, hi]: a = 1/span scales a span over 1
    down to 1, and b = -a * vmin shifts a negative minimum up to 0.  Values
    >= 0 are never shifted, so g can exceed 1; (f, {}) when that map is the
    identity (values >= 0 with a span of at most 1, in [0, 1] or not), or
    when sampling fails or gives a non-finite value."""
    xs = np.linspace(float(lo), float(hi), GRID_POINTS)
    try:
        with np.errstate(all="ignore"):     # non-finite: checked below
            vals = f.eval_array(xs)
    except (SmoothParamError, ArithmeticError, ValueError):
        return f, {}    # a pole, a lost branch or a failed math call alike
    if not np.all(np.isfinite(vals)):
        return f, {}
    vmin, vmax = float(np.min(vals)), float(np.max(vals))
    if vmin >= -1e-12 and vmax <= 1 + 1e-12:
        return f, {}
    span = max(vmax - vmin, 1e-300)
    a = _fr(1) / _fr(span) if span > 1 else _fr(1)
    b = -_fr(vmin) * a if vmin < 0 else _fr(0)
    if (a, b) == (1, 0):
        return f, {}
    return scale_shift(f, a, b), {"scale": a, "shift": b}


# -- algebraic branches -------------------------------------------------------

def singular_locus(P: BivarPoly) -> list:
    """Complex singular points of the algebraic function P(x, y) = 0: the
    roots of Res_y(P, dP/dy) plus the roots of the leading y-coefficient."""
    if P.degy <= 0:
        raise DegenerateInY("P has degree 0 in y")
    res, lead = resultant_y(P, P.dy()), P.rows[-1]
    keep = []                           # (point, radius), nearby points once
    for z, r in [*(complex_roots(res) if res else []),
                 *(complex_roots(lead) if lead.degree > 0 else [])]:
        if not any(abs(w - z) <= max(r, s, 1e-10) for w, s in keep):
            keep.append((z, r))
    return [z for z, _ in keep]


def _zip(op, a, b):
    """a + b or a - b (op np.add or np.subtract) in the form of a and b."""
    return tuple(map(op, a, b))


def _abs(a):
    """|a|: np.hypot (Python's abs) on a pair, np.abs on a 1-tuple."""
    return np.abs(a[0]) if len(a) == 1 else np.hypot(*a)


def _polyval(cs, w):
    """sum cs[i] w^(m-1-i) by Horner's rule from y = 0: cs a list of m
    coefficients in the form of w, highest degree first."""
    y = (0.0, 0.0)[:len(w)]
    for c in cs:
        y = _zip(np.add, _mul(y, w), c)
    return y


def _npdiv(a, b):
    """a / b (b != 0) by numpy's complex-division formula (Smith's method
    through a reciprocal), not Python's `/`; on 1-tuples (real,), that
    formula at b_1 = +-0: a * (1 / b), which is not a / b."""
    if len(b) == 1:
        return (a[0] * (1.0 / b[0]),)
    big = np.abs(b[0]) >= np.abs(b[1])
    rat = np.where(big, b[1] / b[0], b[0] / b[1])
    scl = 1.0 / np.where(big, b[0] + b[1] * rat, b[1] + b[0] * rat)
    return (np.where(big, a[0] + a[1] * rat, a[0] * rat + a[1]) * scl,
            np.where(big, a[1] - a[0] * rat, a[1] * rat - a[0]) * scl)


def _newton(cs, w):
    """Newton's method on the fibre polynomials sum_j cs[j] y^j, one per
    column of the coefficients cs, from the start values w: returns
    (wn, conv).  An element stops after 50 iterations or once its step is
    at most 1e-15 max(1, |w|); conv is False where the derivative vanished
    or the final residual exceeds both CONTINUATION_RESIDUAL and
    16 (n + 1) u H, H = sum_j |cs[j]| |wn|^j finite: Horner's rule rounds
    within 2n u H (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 5.1), so far from 0 rounding alone can exceed the absolute
    bound.  H is formed only where the absolute test fails, and where it
    overflows, H and the residual are formed over a power of two 2^s
    (`_down_shift`); a NaN residual fails both.

    cs, w and wn are (real, imag) pairs or, on the real axis, 1-tuples
    (BranchTracker._correct).  Products round as Python's complex product
    (`bivar._mul`) and quotients by numpy's formula, which on the real axis
    is how numpy's complex arrays round and off it gives the one-point
    Python values.  Run under np.errstate(all="ignore")."""
    n = len(cs[0]) - 1
    p = [tuple(c[k] for c in cs) for k in range(n, -1, -1)]
    dp = [_mul(c, (float(n - i), 0.0)[:len(cs)]) for i, c in enumerate(p[:-1])]
    wn = tuple(v.copy() for v in w)
    conv = np.ones(len(w[0]), dtype=bool)
    act, ap, adp, aw = np.arange(len(w[0])), p, dp, wn
    for _ in range(50):
        dv = _polyval(adp, aw)
        zero = (dv[0] == 0) & (dv[-1] == 0)     # dv[-1]: the imaginary part
        step = _npdiv(_polyval(ap, aw), dv)
        aw = _zip(np.subtract, aw, step)
        done = zero | (_abs(step) <= 1e-15 * np.fmax(1.0, _abs(aw)))
        if done.any():
            conv[act[zero]] = False
            for v, a in zip(wn, aw):
                v[act[done]] = a[done]
            keep = ~done
            act, aw = act[keep], tuple(v[keep] for v in aw)
            ap = [tuple(v[keep] for v in c) for c in ap]
            adp = [tuple(v[keep] for v in c) for c in adp]
            if not act.size:
                break
    for v, a in zip(wn, aw):
        v[act] = a
    res = _abs(_polyval(p, wn))
    ok = res <= CONTINUATION_RESIDUAL
    far = np.flatnonzero(conv & ~ok)
    if far.size:
        pf, a = [tuple(v[far] for v in c) for c in p], _abs(
            tuple(v[far] for v in wn))
        H, res = _abs_polyval(pf, a), res[far]
        big = np.flatnonzero(~np.isfinite(H))
        if big.size:    # H overflows: form it and the residual over 2^s
            pf = [tuple(v[big] for v in c) for c in pf]
            s, fit = _down_shift([_abs(c) for c in pf[::-1]], a[big])
            big, s = big[fit], s[fit]
            sc = [tuple(np.ldexp(v[fit], -s) for v in c) for c in pf]
            H[big] = _abs_polyval(sc, a[big])
            res[big] = _abs(_polyval(sc, tuple(v[far[big]] for v in wn)))
        ok[far] = np.isfinite(H) & (res <= 16 * (n + 1) * _U * H)
    return wn, conv & ok


def _down_shift(mags, a):
    """(s, fit) per column for the magnitudes mags[j] = |c_j| of a
    polynomial's coefficients, lowest degree first, at a >= 0:
    s >= 0 puts 2^-s sum_j mags[j] a^j below 2^1000, from the exponents of
    the largest term, and fit says that a is finite and every nonzero
    2^-s mags[j] stays a normal float, so that the scaling is exact and,
    over a power of two, moves no rounding."""
    e = [np.frexp(m)[1] for m in mags]
    ea = np.frexp(a)[1]
    top = np.max([np.where(m > 0, ej + j * ea, -2**20)
                  for j, (m, ej) in enumerate(zip(mags, e))], axis=0)
    s = np.maximum(top + len(mags).bit_length() - 1000, 0)
    low = np.min([np.where(m > 0, ej, 2**20) for m, ej in zip(mags, e)],
                 axis=0)
    return s, (s > 0) & np.isfinite(a) & (low - s >= -1021)


def _abs_polyval(cs, a):
    """sum |cs[i]| a^(m-1-i) by Horner's rule: `_polyval` on the absolute
    values, at a >= 0."""
    h = 0.0
    for c in cs:
        h = h * a + _abs(c)
    return h


def _disk_test(cs, w, wn):
    """Per column: True only if p(y) = sum_j cs[j] y^j has exactly one root
    in the open disk |y - wn| < r, r >= 2 |wn - w|, by Rouche's theorem
    against the linear term, so that every other root lies at least
    2 |wn - w| from wn.  cs, w and wn are (real, imag) pairs or 1-tuples.

    The Taylor coefficients b_k of p at wn come from repeated synthetic
    division, and B_k, the same division run on |cs[j]| at |wn|, bounds the
    exact b_k term by term.  The radius is
        r = max(2 |wn - w|, 4 (|b_0| + 8(n+3) u B_0) / |b_1|):
    a step of an ulp or two makes 2 |wn - w| so small that the rounding
    margin below exceeds |b_1| 2 |wn - w|, and no disk that small can be
    certified, while at the floor |b_1| r is four times the constant term
    and its margin, which leaves room for the rest.  A larger disk keeps
    what the test proves, since one root within r >= 2 |wn - w| of wn
    leaves every other root at least that far away.  At b_1 = 0 the floor
    is inf or NaN and the test rejects, as no radius can pass it there.
    The test accepts when
        |b_1| r > |b_0| + sum_{k>=2} |b_k| r^k + 8(n+3) u H + eta,
    H = sum_k B_k r^k, u = 2^-53, n = len(cs) - 1.  The arithmetic is that
    of Python complex numbers, bit for bit: each product is formed from its
    parts without a fused multiply-add (`bivar._mul`) and rounds within
    sqrt(5) u, and each |.| is np.hypot, the C library hypot that Python's
    abs calls.  (numpy's own complex multiply, fused where the CPU has FMA,
    rounds within 2u (Jeannerod, Kornerup, Louvet & Muller, Math. Comp. 86,
    2017), so the margin below would cover it too.)  To first order the
    shift loses at most (sqrt(5) n + n + 1) u B_k in b_k (a sum rounds
    within u), and the abs values, powers and sums at most (2n + 8) u H
    more, so 8(n+3) u H covers every rounding above the underflow threshold;
    eta = (n+3)^2 2^-1070 (2 max(1, |wn|) max(1, r))^n covers the absolute
    errors of subnormal products.  On the circle |y - wn| = r the exact
    |p - b_1 (y - wn)| is then below |b_1 (y - wn)|, so p has as many zeros
    inside as b_1 (y - wn): one.  A NaN or an inf rejects; where a sum
    overflows, the test is rerun on p / 2^s, which has the roots of p, with
    s sized from |wn| + 2 |wn - w| (`_down_shift`), not from r, which an
    overflowed B_0 makes inf.  Run under np.errstate(all="ignore")."""
    n = len(cs[0]) - 1
    gap = 2 * _abs(_zip(np.subtract, wn, w))
    b = [tuple(c[k] for c in cs) for k in range(n, -1, -1)]   # descending
    h = [_abs(c) for c in b]
    aw = _abs(wn)
    for k in range(n):                  # b[n - k] becomes b_k
        for i in range(1, n + 1 - k):
            b[i] = _zip(np.add, b[i], _mul(wn, b[i - 1]))
            h[i] = h[i] + aw * h[i - 1]
    a = [_abs(c) for c in b]
    r = np.maximum(gap, 4 * (a[n] + 8 * (n + 3) * _U * h[n]) / a[n - 1])
    finite = np.isfinite([r, aw] + h + a).all(axis=0)
    lhs = a[n - 1] * r
    rhs, big = a[n], h[n] + h[n - 1] * r
    eta = (n + 3) ** 2 * 2.0 ** -1070
    grow, rk = 2 * np.fmax(1.0, aw) * np.fmax(1.0, r), r
    for k in range(2, n + 1):
        rk = rk * r
        rhs = rhs + a[n - k] * rk
        big = big + h[n - k] * rk
    for _ in range(n):
        eta = eta * grow
    ok = finite & (lhs > rhs + 8 * (n + 3) * _U * big + eta)
    redo = np.flatnonzero(~finite)
    if redo.size:       # an overflow: the same test on p / 2^s
        cs = tuple(c[:, redo] for c in cs)
        s, fit = _down_shift(_abs(cs), (aw + gap)[redo])
        redo, s = redo[fit], s[fit]
        if redo.size:
            ok[redo] = _disk_test(
                tuple(np.ldexp(c[:, fit], -s) for c in cs),
                tuple(v[redo] for v in w), tuple(v[redo] for v in wn))
    return ok


def _same(a, b):
    """Elementwise bit-for-bit equality of two 1-D complex arrays."""
    a, b = a.view(np.int64), b.view(np.int64)
    return (a[::2] == b[::2]) & (a[1::2] == b[1::2])


class BranchTracker:
    """Continuation bookkeeping for one branch of P(x, y) = 0, seeded at a
    point on the curve.  Real-axis values are cached so repeated grid
    evaluations walk from the nearest known point.

    A continuation step from (z, w) to zn runs the corrector `_correct`:
    Newton's method on the fibre polynomial P(zn, .) from w, then the sheet
    guard, which accepts the step w -> wn if either of two tests holds:
    1. |wn - w| <= |step|;
    2. the Rouche disk test `_disk_test`: the fibre polynomial has exactly
       one root within some r >= 2 |wn - w| of wn, so every other root lies
       at least 2 |wn - w| from wn.
    Test 2 is a proof about the exact fibre roots, its rounding included;
    a step that neither test accepts is halved.
    `_advance` walks from point to point: steps of at most half the
    distance to the nearest singular point, each halved while the corrector
    rejects it (counted in `halvings`) down to CONTINUATION_STEP_FLOOR: the
    predictor-corrector walk of Allgower & Georg, Introduction to Numerical
    Continuation Methods (1990).  A whole step, one as long as the distance
    left and not halved, lands on the target itself, not on z + step, which
    can miss it by a rounding and leave a step of about 1e-17 to take.  A
    target where a coefficient of the fibre P(x, .) is not finite fails
    with FibreOverflow before any step.

    A whole real grid (`eval_grid`) or every row of a disk (`eval_path`) is
    one recurrence, each W_i a step from W_(i-1) or from a given start,
    solved by `_sweep` as an exact
    fixed point.  Each sweep runs the corrector, as numpy arrays (float ones
    on the real axis, bit for bit: `_correct`), at every open point whose
    start value changed since it last ran.  A point is final once its start
    is final and it ran from that start, so a run of final points grows
    while each value equals, bit for bit, the start its successor ran from,
    and every value is the one the point-by-point walk gives.  The batch
    takes a point whose first step is whole, so that `_advance` would make
    exactly that one corrector run.  Each sweep then hands every point
    whose start is final and that the batch did not take (a zero-length
    step, several substeps, tests 1 and 2 failing) to `_advance` once, all
    in lockstep, counted in `single_steps`; k such points in a row take k
    sweeps.  On a disk row only the entry from the seed can need substeps.

    The real-axis cache is two sorted arrays, keys `_keys` and values
    `_vals`.  A new point x of a call continues from the nearer (in rounded
    distance) of its two neighbours among the known points: the greatest
    cached key or earlier point of the call below x, and the least cached
    key above x; on a tie, the one below.  A non-finite x raises
    EvaluationAtSingularity before the cache is consulted; a seed that is
    not a finite point on the curve raises ValueError at construction, so
    no key is ever NaN.  At most CONTINUATION_CACHE_CAP values are cached,
    a call's lowest new points first; the cap limits only what later calls
    find, since the points of one call chain through each other."""

    def __init__(self, P: BivarPoly, seed):
        self.P = P
        self.seed = (complex(seed[0]), complex(seed[1]))
        self.singularities = singular_locus(P)
        r = abs(P(*self.seed))
        if not (all(map(cmath.isfinite, self.seed))
                and r <= CONTINUATION_RESIDUAL):
            raise ValueError(f"seed {seed} is not a finite point on the "
                             f"curve (residual {r:.3g})")
        x0 = self.seed[0].real
        self._keys = np.array([x0])     # sorted cache keys
        self._vals = np.array([self.seed[1]])   # their values
        # |x| <= _no_overflow bounds each coefficient of P(x, .) by
        # s max(1, |x|)^degx <= 2^1000, s the sum of P's |coefficients|
        s = sum(abs(c) for *_, c in P.float_terms())
        self._no_overflow = (
            (2.0 ** 1000 / max(s, 1.0)) ** (1 / max(P.degx, 1))
            if s <= 2.0 ** 1000 else -1.0)
        self.halvings = 0               # continuation steps halved
        self.single_steps = 0           # points a sweep hands to _advance

    def _sing_dist(self, z):
        """Distance from z (a point or an array) to the nearest singular
        point; |.| is hypot, as Python's abs."""
        z = np.asarray(z, dtype=complex)
        return reduce(np.minimum, [np.hypot(z.real - s.real, z.imag - s.imag)
                                   for s in self.singularities],
                      np.full(z.shape, math.inf))

    def _correct(self, w, zn, h):
        """The corrector at complex arrays of start values w, targets zn and
        step lengths h: Newton from w on the fibre at zn, then tests 1 and 2
        of the sheet guard.  Returns (wn, conv, ok): Newton's values, where
        Newton converged, and where tests 1 and 2 accept the step.

        Where every imaginary part of zn and w is +-0 (`any()` reads -0.0
        as zero), it all runs on 1-tuples of the real parts, with the pair
        form's result bit for bit: while the real parts stay finite, the
        pair form's imaginary parts stay +-0 (a cross term a_1 b_1 is +-0
        and moves only a zero difference; hypot(x, +-0) = |x|; numpy's
        quotient at b_1 = +-0 is a_0 (1 / b_0)), so each real part is the
        float result but for the sign of an exact zero, which reaches no
        nonzero value (a zero derivative sets conv False in both forms), and
        Newton keeps a start's imaginary part +0.  The pair form is rerun on
        the rest: a start or value of +-0, a start with imaginary part -0,
        and a value not finite or whose Horner sums may overflow (a
        coefficient of 2^400, or |wn|^n of 2^500, or more).  A non-finite
        value stays so but for an overflowed derivative, which stops Newton
        at a zero step; the disk test rejects non-finite values either way."""
        if zn.imag.any() or w.imag.any():
            return self._correct_parts((w.real, w.imag), (zn.real, zn.imag),
                                       h)[:3]
        wn, conv, ok, (c,) = self._correct_parts((w.real,), (zn.real,), h)
        v = wn.real
        g = np.flatnonzero((w.real == 0) | np.signbit(w.imag) | (v == 0)
                           | ~((np.abs(c).max(axis=0) < 2.0 ** 400)
                               & (np.abs(v) < 2.0 ** (500 / (len(c) - 1)))))
        if g.size:
            wn[g], conv[g], ok[g], _ = self._correct_parts(
                (w.real[g], w.imag[g]), (zn.real[g], zn.imag[g]), h[g])
        return wn, conv, ok

    def _correct_parts(self, w, zn, h):
        """_correct on parts (pairs or 1-tuples): (wn, conv, ok, cs)."""
        cs = self.P.y_poly_coeffs(zn)
        with np.errstate(all="ignore"):
            wn, conv = _newton(cs, w)
            ok = conv & (_abs(_zip(np.subtract, wn, w)) <= h)
            rest = np.flatnonzero(conv & ~ok)
            if rest.size:
                ok[rest] = _disk_test(tuple(c[:, rest] for c in cs),
                                      tuple(v[rest] for v in w),
                                      tuple(v[rest] for v in wn))
        return _pack(wn[0], wn[-1] if len(wn) == 2 else 0.0), conv, ok, cs

    @staticmethod
    def _step_toward(z, z1, d):
        """_advance's next step from z toward z1 (complex arrays), d being
        the distance from z to the nearest singular point: (step, |z1 - z|,
        |step|), with step = (z1 - z) / |z1 - z| * min(|z1 - z|, max(d / 2,
        CONTINUATION_STEP_FLOOR max(1, |z|))) rounded as Python's complex
        arithmetic."""
        rem = (z1.real - z.real, z1.imag - z.imag)
        ab = np.hypot(*rem)
        sl = np.minimum(ab, np.fmax(d / 2, CONTINUATION_STEP_FLOOR
                                    * np.fmax(1.0, np.abs(z))))
        with np.errstate(all="ignore"):     # ab = 0: _advance is done
            return _pack(*_mul(_pydiv(rem, (ab, 0.0)), (sl, 0.0))), ab, sl

    def _advance(self, z0, w0, z1):
        """Track each (z0[i], w0[i]) to x = z1[i] (complex arrays) point by
        point, all in lockstep: steps of at most half the distance to the
        nearest singular point, each halved while the corrector rejects it,
        down to CONTINUATION_STEP_FLOOR max(1, |z|), which stays above one
        ulp of z; a walk that needs more than
        CONTINUATION_ROUND_CAP corrector rounds fails with BranchJump.  The
        step arithmetic rounds as Python's complex arithmetic, and a whole
        step (as long as the distance left, not halved) goes to z1[i]
        itself.  Returns (w1, errs, halved): errs[i] is the error that
        stopped element i, else None, and halved[i] counts its halved
        steps."""
        floor = CONTINUATION_STEP_FLOOR
        z, w, d = z0.copy(), w0.copy(), self._sing_dist(z0)
        step = np.zeros_like(z)
        errs = [None] * len(z)
        halved = np.zeros(len(z), dtype=int)
        rounds = np.zeros(len(z), dtype=int)
        act, fresh = np.arange(len(z)), np.ones(len(z), dtype=bool)
        whole = np.zeros(len(z), dtype=bool)    # the step reaches z1, unhalved
        with np.errstate(all="ignore"):
            while True:
                # a new step where the last one was accepted; done on arrival
                f = act[fresh[act]]
                step[f], ab, sl = self._step_toward(z[f], z1[f], d[f])
                whole[f] = sl == ab
                act = np.setdiff1d(act, f[~(ab > 0)], assume_unique=True)
                fresh[f] = False
                if not act.size:
                    return w, errs, halved
                zn = np.where(whole[act], z1[act], z[act] + step[act])
                dn = self._sing_dist(zn)
                rounds[act] += 1
                near = dn < 10 * floor
                spent = rounds[act] > CONTINUATION_ROUND_CAP
                for j in np.flatnonzero(near | spent):
                    errs[act[j]] = (
                        PathNearSingularity("path within floor of singularity "
                                            f"at {complex(zn[j])}")
                        if near[j] else BranchJump(
                            f"no branch value at x = {complex(z1[act[j]])} "
                            f"within {CONTINUATION_ROUND_CAP} corrector rounds"))
                keep = ~(near | spent)
                act, zn, dn = act[keep], zn[keep], dn[keep]
                if not act.size:
                    return w, errs, halved
                h = np.hypot(step.real[act], step.imag[act])
                wn, _, ok = self._correct(w[act], zn, h)
                a = act[ok]
                z[a], w[a], d[a], fresh[a] = zn[ok], wn[ok], dn[ok], True
                lost = ~ok & (h / 2 < floor * np.fmax(1.0, np.abs(z[act])))
                for j in np.flatnonzero(lost):
                    errs[act[j]] = BranchJump(
                        f"corrector lost the branch near x = {complex(zn[j])}")
                r = act[~ok & ~lost]
                step[r] = _pack(*_pydiv((step.real[r], step.imag[r]),
                                        (2.0, 0.0)))
                whole[r] = False
                halved[r] += 1
                act = act[~lost]

    def _overflow(self, zt):
        """(k, error) for the first target zt[k] (a complex array) where a
        coefficient of the fibre P(zt[k], .) is not finite, else (len(zt),
        None): no float walk reaches a root there, so the walk to it fails
        at once."""
        if (np.abs(zt.real).max(initial=0) + np.abs(zt.imag).max(initial=0)
                <= self._no_overflow):
            return len(zt), None
        parts = (zt.real, zt.imag) if zt.imag.any() else (zt.real,)
        with np.errstate(all="ignore"):
            cs = self.P.y_poly_coeffs(parts)
        bad = ~np.isfinite(cs).all(axis=(0, 1))
        if not bad.any():
            return len(zt), None
        k = int(np.argmax(bad))
        return k, FibreOverflow("a coefficient of the fibre P(x, y) "
                                f"overflows at x = {complex(zt[k])}")

    def _sweep(self, zs, zt, w0, prev):
        """W[i] = _advance(zs[i], start_i, zt[i]) for every i, the start
        being W[i - 1] where prev[i] and w0[i] otherwise (prev[0] False),
        solved by exact fixed-point sweeps (see the class docstring): each
        runs the batch where a start changed, then hands the points with a
        final start that it did not take to `_advance` once.  The batch
        takes the points whose first step is whole: there `_advance` runs
        the corrector once, at zt itself.  A target whose fibre overflows
        (`_overflow`) is a failure at once.  Returns (W, err, halved): W for
        the points before the first whose continuation fails, that failure
        (None if there is none), and per point the halved steps of its walk,
        which the point-by-point walk makes only up to the first failure."""
        n = len(zt)
        # the batch takes a point when _advance's first step is whole, so
        # that it lands on zt in one corrector run
        step, ab, sl = self._step_toward(zs, zt, self._sing_dist(zs))
        h = np.hypot(step.real, step.imag)
        batch = ((ab > 0) & (sl == ab)
                 & (self._sing_dist(zt) >= 10 * CONTINUATION_STEP_FLOOR))
        W = w0[np.maximum.accumulate(np.where(prev, 0, np.arange(n)))]
        used = np.zeros(n, dtype=complex)  # the start W[i] was computed from
        ran = np.zeros(n, dtype=bool)      # ... once it was
        ok = np.zeros(n, dtype=bool)       # the corrector accepted that step
        final = np.zeros(n, dtype=bool)
        halved = np.zeros(n, dtype=int)
        end, err = self._overflow(zt)
        while True:
            todo = np.flatnonzero(~final[:end])
            if not todo.size:
                return W[:end], err, halved
            chain = prev[todo]
            exact = ~chain | final[todo - 1]        # the start is final
            start = np.where(chain, W[todo - 1], w0[todo])
            # a value depends on its start alone: run the batch points whose
            # start changed since they last ran
            k = np.flatnonzero(batch[todo]
                               & ~(ran[todo] & _same(used[todo], start)))
            if k.size:
                i = todo[k]
                wn, conv, ok[i] = self._correct(start[k], zt[i], h[i])
                W[i] = np.where(conv, wn, W[i])
                used[i], ran[i] = start[k], True
            valid = ran[todo] & ok[todo] & _same(used[todo], start)
            # points with a final start that the batch did not take
            ks = np.flatnonzero(exact & ~valid)
            if ks.size:
                i = todo[ks]
                self.single_steps += len(ks)
                w1, errs, halved[i] = self._advance(
                    zs[i], start[ks], zt[i])
                bad = [j for j, e in enumerate(errs) if e is not None]
                if bad:     # raised once the points before it are done
                    end, err = i[bad[0]], errs[bad[0]]
                    ks, i, w1 = ks[:bad[0]], i[:bad[0]], w1[:bad[0]]
                W[i], used[i] = w1, start[ks]
                ran[i] = ok[i] = valid[ks] = True
            # a run of final points starts at a final start and goes on while
            # each point ran from its predecessor's value, bit for bit
            head = exact & valid
            link = (~exact & ran[todo] & ok[todo]
                    & _same(used[todo], W[todo - 1]))
            pos = np.arange(len(todo))
            last_head = np.maximum.accumulate(np.where(head, pos, -1))
            last_break = np.maximum.accumulate(np.where(head | link, -1, pos))
            done = head | (link & (last_head > last_break))
            final[todo[done & (todo < end)]] = True

    def _starts(self, X):
        """Where each of the sorted, uncached points X continues from (see
        the class docstring): (zs, w0, prev), prev[i] True where that is
        X[i - 1], else the cached key zs[i] with value w0[i]."""
        K, n = self._keys, len(self._keys)
        hi = np.searchsorted(K, X)
        lo, up = np.maximum(hi - 1, 0), np.minimum(hi, n - 1)
        below = np.where(hi > 0, K[lo], -math.inf)
        before = np.r_[-math.inf, X[:-1]]
        prev = before > below
        below = np.maximum(below, before)
        with np.errstate(over="ignore"):
            above = (hi < n) & ((below == -math.inf) | (K[up] - X < X - below))
        prev &= ~above
        zs = np.where(above, K[up], below)
        return zs.astype(complex), self._vals[np.where(above, up, lo)], prev

    def _remember(self, xs, ws):
        """Cache the values ws at the new sorted keys xs, the lowest first,
        while there is room."""
        k = max(0, CONTINUATION_CACHE_CAP - len(self._keys))
        at = np.searchsorted(self._keys, xs[:k])
        self._keys = np.insert(self._keys, at, xs[:k])
        self._vals = np.insert(self._vals, at, ws[:k])

    def eval_real(self, x):
        return complex(self.eval_grid(np.array([float(x)]))[0])

    def eval_grid(self, xs, check=None):
        """eval_real at every point of the real array xs, taken in
        increasing order, as one sweep; repeats of a point are one point.
        On a failure, the error of the first failing point is raised with
        the points before it cached.  check(x, w), given the points
        evaluated (sorted, without repeats) and their values, may return
        (k, error) for the first point its caller rejects: that point is
        cached, no later one is, and the error is raised.  A non-finite x
        raises EvaluationAtSingularity before anything is evaluated."""
        xs = np.asarray(xs, dtype=float)
        bad = ~np.isfinite(xs)
        if bad.any():
            raise EvaluationAtSingularity(
                f"branch evaluated at x = {xs[bad].flat[0]}")
        keys, inv = np.unique(xs.ravel(), return_inverse=True)
        at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
        hit = self._keys[at] == keys
        vals = np.where(hit, self._vals[at], 0j)
        new = np.flatnonzero(~hit)
        W, err, halved = np.empty(0, dtype=complex), None, np.zeros(0, int)
        if new.size:
            zs, w0, prev = self._starts(keys[new])
            W, err, halved = self._sweep(
                zs, keys[new].astype(complex), w0, prev)
            vals[new[:len(W)]] = W
        done = len(keys) if err is None else new[len(W)]
        # a failed walk's halvings count, and its point is not cached
        walked, cached = done + 1, done
        rejected = check(keys[:done], vals[:done]) if check else None
        if rejected:
            k, err = rejected
            walked = cached = k + 1
        self.halvings += int(halved[new < walked].sum())
        self._remember(keys[new[new < cached]], vals[new[new < cached]])
        if err is not None:
            raise err
        return vals[inv].reshape(xs.shape)

    def eval_path(self, path):
        """Values of the branch along complex paths: each row (last axis) of
        `path` is entered from the seed and continued point to point, a
        1-D path being one row; all rows are solved in one sweep."""
        zt = np.asarray(path, dtype=complex)
        if not zt.size:
            return zt.copy()
        rows = zt.reshape(-1, zt.shape[-1])
        zs = np.empty_like(rows)
        zs[:, 0], zs[:, 1:] = self.seed[0], rows[:, :-1]
        prev = np.ones(rows.size, dtype=bool)
        prev[::rows.shape[1]] = False
        W, err, halved = self._sweep(
            zs.ravel(), rows.ravel(), np.full(rows.size, self.seed[1]), prev)
        self.halvings += int(halved[:len(W) + 1].sum())
        if err is not None:
            raise err
        return W.reshape(zt.shape)


class BranchExpr(FunctionExpr):
    """One real branch of P(x, y) = 0, optionally composed with the implicit
    derivative calculus: value = rat(x, g(x))."""

    def __init__(self, P: BivarPoly, seed, rat: BivarRational = None,
                 tracker: BranchTracker = None):
        self.P = P
        self.seed = seed
        self.rat = rat  # None means the branch value itself
        self.tracker = tracker or BranchTracker(P, seed)

    def size(self):
        if self.rat is None:
            return 4
        return 2 + len(self.rat.num.terms()) + len(self.rat.den.terms())

    def deriv(self):
        base = self.rat or BivarRational.from_poly(BivarPoly({(0, 1): 1}))
        return BranchExpr(self.P, self.seed, base.implicit_deriv(self.P),
                          tracker=self.tracker)

    def eval_array(self, xs):
        """Real xs: the value at each point, the points continued in
        increasing order from the nearest cached real point by one sweep
        (`BranchTracker.eval_grid`); a value off the real line or at a pole
        of rat raises.  Complex xs: each row (last axis) is one continuation
        path, entered from the seed and continued point to point
        (`BranchTracker.eval_path`); a 1-D array is one row.  rat is applied
        over the arrays, with the bits of its one-point evaluation."""
        if np.iscomplexobj(xs):
            ws = self.tracker.eval_path(xs)
            return ws if self.rat is None else self.rat.eval_array(xs, ws)
        xs = np.asarray(xs, dtype=float)
        ws = self.tracker.eval_grid(xs, self._rejected)
        if self.rat is None:
            return ws.real.copy()
        return self.rat.eval_array(xs, ws.real)

    def _rejected(self, x, w):
        """(k, error) for the first branch value w[k] at x[k] that is off
        the real line or at a pole of rat, or None."""
        off = np.abs(w.imag) > 1e-8
        pole = np.zeros_like(off)
        if self.rat is not None:
            with np.errstate(all="ignore"):
                pole = self.rat.den.eval_array(x, w.real) == 0
        bad = np.flatnonzero(off | pole)
        if not bad.size:
            return None
        k = bad[0]
        if off[k]:
            return k, EvaluationAtSingularity(
                f"branch left the real line at x = {x[k]} (w = {w[k]})")
        return k, ZeroDivisionError("division by zero")


class BlackboxExpr(FunctionExpr):
    """Opaque evaluator with a declared (unverifiable) zero-count bound N for
    itself and its derivatives."""

    def __init__(self, fn, zero_count: int, deriv_fns=None, _level=0):
        self.fn = fn
        self.zero_count = zero_count
        self.deriv_fns = deriv_fns or []
        self._level = _level

    def size(self):
        return 2

    def deriv(self):
        """The next of `deriv_fns`; past them, OrderOverflow (no fallback)."""
        if self._level < len(self.deriv_fns):
            return BlackboxExpr(self.deriv_fns[self._level], self.zero_count,
                                self.deriv_fns, _level=self._level + 1)
        raise OrderOverflow(
            f"blackbox declares {len(self.deriv_fns)} derivatives; "
            f"order {self._level + 1} was asked")

    def eval_array(self, xs):
        return np.array([self.fn(x) for x in xs.ravel().tolist()]
                        ).reshape(xs.shape)


# -- the poly_core operations -------------------------------------------------

def isolate_real_zeros(f: FunctionExpr, interval):
    """Disjoint isolating intervals for the real zeros of f on the interval.

    Exact for rational f (`poly.isolate_roots` on num/gcd(num, den), so a
    pole is never a zero and a zero beside a pole is kept); sampled
    sign-change bisection otherwise, with the declared zero count as a
    completeness check for blackboxes.  A NaN sample has no sign, so a sign
    change across it would be lost: it raises EvaluationAtSingularity naming
    x (a +-inf sample keeps its sign).  A bisection midpoint is read by
    `eval`, which raises at a NaN or infinite value."""
    lo, hi = interval
    rat = f.as_rational()
    if rat is not None:
        if rat[0].is_zero():
            raise ValueError("identically zero function")
        return isolate_roots(f.lowest_terms()[0], _fr(lo), _fr(hi))
    # sampled bisection
    n = max(16, int(BISECT_SAMPLES_PER_UNIT * (float(hi) - float(lo))))
    xs = np.linspace(float(lo), float(hi), n + 1)
    with np.errstate(all="ignore"):     # a NaN sample raises below
        vals = f.eval_array(xs)
    if np.isnan(vals).any():
        x = xs[np.isnan(vals).argmax()]
        raise EvaluationAtSingularity(f"NaN value of f at x = {x}")
    out = []
    for i in range(n):
        a, b, va, vb = xs[i], xs[i + 1], vals[i], vals[i + 1]
        if va == 0:
            out.append((a, a))
            continue
        if va * vb < 0:
            for _ in range(60):
                m = 0.5 * (a + b)
                vm = f.eval(m)
                if vm == 0:
                    a = b = m
                    break
                if va * vm < 0:
                    b, vb = m, vm
                else:
                    a, va = m, vm
            out.append((a, b))
    if vals[-1] == 0:
        out.append((xs[-1], xs[-1]))
    if isinstance(f, BlackboxExpr) and len(out) > f.zero_count:
        raise ZeroCountMismatch(
            f"found {len(out)} sign changes, declared bound {f.zero_count}")
    return out


def hyperbola_branch(eps) -> RationalExpr:
    """g(x) = -eps^2 / x, the running example branch of x*y = eps^2."""
    e = _fr(eps)
    return RationalExpr(Poly([-e * e]), Poly([0, 1]))
