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

import numpy as np

from .bivar import (BivarPoly, BivarRational, _mul, _pack, _pydiv,
                    resultant_y)
from .config import DEFAULT, Config
from .errors import (BranchJump, DegenerateInY, EvaluationAtSingularity,
                     OrderOverflow, PathNearSingularity, SmoothParamError,
                     ZeroCountMismatch)
from .poly import Poly, _fr, complex_roots, isolate_roots

EXPR_SIZE_CAP = 200_000              # nodes, symbolic differentiation cap
BISECT_SAMPLES_PER_UNIT = 4096       # sign-change scan of a non-rational f
CONTINUATION_RESIDUAL = 1e-10        # |P(x, y)| accepted on the curve
CONTINUATION_STEP_FLOOR = 1e-12      # smallest continuation step
CONTINUATION_CACHE_CAP = 100_000     # real-axis values a tracker caches
_U = 2.0 ** -53                      # unit roundoff, for _disk_test


def _sqrt_exact(v: Fraction):
    """Rational square root if it exists, else None."""
    if v < 0:
        raise ValueError("sqrt of negative value")
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
            if (dv := rat[1](x)) == 0:
                raise EvaluationAtSingularity(f"pole at {x}")
            return rat[0](x) / dv
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

    _step = None          # (h, u, h', i, N_i, d h^i) of an i-th derivative

    def __init__(self, num: Poly, den: Poly = None):
        self.num = num
        self.den = den if den is not None else Poly([1])
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")

    def __repr__(self):
        return f"RationalExpr({self.num!r}, {self.den!r})"

    def is_poly(self):
        return self.den.degree == 0

    def as_rational(self):
        return (self.num, self.den)

    def size(self):
        return self.num.degree + self.den.degree + 2

    def lowest_terms(self):
        """(num, den) over their gcd; a polynomial, and a derivative from
        `deriv`, are in lowest terms already and take no gcd."""
        num, den = self.num, self.den
        if self._step is None and not self.is_poly():
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
        return num, den

    def deriv(self):
        """f' in lowest terms, its den's leading coefficient the square of
        self.den's (a polynomial's derivative has den 1).

        A chain takes one gcd in total, not one per order.  With n/d in
        lowest terms, g = gcd(d, d'), h = d/g and u = d'/g, the i-th
        derivative is N_i/(d h^i), where N_0 = n and
        N_(i+1) = N_i' h - N_i (u + i h').  A pole of order m has order
        m + i in f^(i), so every order is again in lowest terms, and one
        scalar restores the normalization.  The first step reduces n/d and
        computes h and u; each derivative carries them, its order i and its
        unscaled N_i and d h^i to the next step."""
        if self.is_poly():
            return RationalExpr(self.num.deriv() * (1 / self.den.coeffs[0]))
        if self._step is None:
            num, den = self.lowest_terms()
            dp = den.deriv()
            g = den.gcd(dp)
            h, u = (den // g, dp // g) if g.degree > 0 else (den, dp)
            step = (h, u, h.deriv(), 0, num, den)
        else:
            step = self._step
        h, u, hp, i, n, d = step
        n = n.deriv() * h - n * (u + hp * i)
        d = d * h
        c = self.den.leading() ** 2 / d.leading()
        out = RationalExpr(n * c, d * c)
        out._step = (h, u, hp, i + 1, n, d)
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
                       ConstExpr(Fraction(1, 2)))

    def eval_array(self, xs):
        return np.sqrt(self.inner.eval_array(xs))


class ConstExpr(FunctionExpr):
    def __init__(self, c):
        self.c = _fr(c)

    def deriv(self):
        return ConstExpr(0)

    def as_rational(self):
        return (Poly([self.c]), Poly([1]))

    def eval_array(self, xs):
        return np.full_like(xs, float(self.c))


def _wrap(f):
    if isinstance(f, FunctionExpr):
        return f
    if isinstance(f, Poly):
        return RationalExpr(f)
    return ConstExpr(f)


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
        return simplify(MulExpr(MulExpr(ConstExpr(self.n), PowExpr(self.f, self.n - 1)),
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
        if rf is not None and rf[0].is_zero():
            return ConstExpr(0)
        if rg is not None and rg[0].is_zero():
            return ConstExpr(0)
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
    """a * f + b, staying rational when f is."""
    a, b = _fr(a), _fr(b)
    rat = f.as_rational()
    if rat is not None:
        num, den = rat
        return RationalExpr(num * a + den * b, den)
    return simplify(AddExpr(MulExpr(ConstExpr(a), f), ConstExpr(b)))


def normalize_values(f: FunctionExpr, lo, hi, cfg: Config = DEFAULT):
    """(g, norm): g = a * f + b with values sampled on [lo, hi] moved into
    [0, 1] (shifted up when negative, scaled down when the span exceeds 1),
    and norm = {"scale": a, "shift": b}; (f, {}) when they already lie in
    [0, 1], or when sampling fails or gives a non-finite value."""
    xs = np.linspace(float(lo), float(hi), cfg.grid_points)
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
    return scale_shift(f, a, b), {"scale": a, "shift": b}


# -- algebraic branches -------------------------------------------------------

def singular_locus(P: BivarPoly) -> list:
    """Complex singular points of the algebraic function P(x, y) = 0: the
    roots of Res_y(P, dP/dy) plus the roots of the leading y-coefficient."""
    if P.degy <= 0:
        raise DegenerateInY("P has degree 0 in y")
    points, radii = [], []
    res = resultant_y(P, P.dy())
    if not res.is_zero():
        for z, r in complex_roots(res):
            points.append(z)
            radii.append(r)
    lead = P.leading_coeff_in_y()
    if lead.degree > 0:
        for z, r in complex_roots(lead):
            points.append(z)
            radii.append(r)
    # dedupe nearby points
    keep = []
    for i, z in enumerate(points):
        dup = False
        for j in keep:
            if abs(points[j] - z) <= max(radii[i], radii[j], 1e-10):
                dup = True
                break
        if not dup:
            keep.append(i)
    return [points[i] for i in keep]


def _polyval(cs, w):
    """sum cs[i] w^(m-1-i) by Horner's rule from y = 0, on (real, imag)
    pairs: cs a list of m coefficient pairs, highest degree first."""
    y = (0.0, 0.0)
    for c in cs:
        y = _mul(y, w)
        y = (y[0] + c[0], y[1] + c[1])
    return y


def _npdiv(a, b):
    """a / b (b != 0) on (real, imag) pairs by numpy's complex-division
    formula (Smith's method through a reciprocal), which rounds differently
    from Python's `/`."""
    big = np.abs(b[0]) >= np.abs(b[1])
    rat = np.where(big, b[1] / b[0], b[0] / b[1])
    scl = 1.0 / np.where(big, b[0] + b[1] * rat, b[1] + b[0] * rat)
    return (np.where(big, a[0] + a[1] * rat, a[0] * rat + a[1]) * scl,
            np.where(big, a[1] - a[0] * rat, a[1] * rat - a[0]) * scl)


def _newton(cs, w):
    """Newton's method on the fibre polynomials sum_j cs[j] y^j, one per
    column of the coefficient pair cs, from the start values w: returns
    (wn, conv).  An element stops after 50 iterations or once its step is
    at most 1e-15 max(1, |w|); conv is False where the derivative vanished
    or the final residual exceeds CONTINUATION_RESIDUAL.

    Products are formed from real and imaginary parts (`bivar._mul`), so
    they round as Python's complex product, and quotients use numpy's
    formula: on the real axis (zero imaginary parts) that is also exactly
    how numpy's complex arrays round, and off it the values are those of
    the one-point Python evaluation.  Run under np.errstate(all="ignore")."""
    n = len(cs[0]) - 1
    p = [(cs[0][k], cs[1][k]) for k in range(n, -1, -1)]
    dp = [_mul((cs[0][k], cs[1][k]), (float(k), 0.0)) for k in range(n, 0, -1)]
    wn = (w[0].copy(), w[1].copy())
    conv = np.ones(len(w[0]), dtype=bool)
    act, ap, adp, aw = np.arange(len(w[0])), p, dp, wn
    for _ in range(50):
        dv = _polyval(adp, aw)
        zero = (dv[0] == 0) & (dv[1] == 0)
        step = _npdiv(_polyval(ap, aw), dv)
        aw = (aw[0] - step[0], aw[1] - step[1])
        done = zero | (np.hypot(*step)
                       <= 1e-15 * np.fmax(1.0, np.hypot(*aw)))
        if done.any():
            conv[act[zero]] = False
            wn[0][act[done]], wn[1][act[done]] = aw[0][done], aw[1][done]
            keep = ~done
            act, aw = act[keep], (aw[0][keep], aw[1][keep])
            ap = [(c[0][keep], c[1][keep]) for c in ap]
            adp = [(c[0][keep], c[1][keep]) for c in adp]
            if not act.size:
                break
    wn[0][act], wn[1][act] = aw
    conv &= ~(np.hypot(*_polyval(p, wn)) > CONTINUATION_RESIDUAL)
    return wn, conv


def _disk_test(cs, w, wn):
    """Per column: True only if p(y) = sum_j cs[j] y^j has exactly one root
    in the open disk |y - wn| < r, r = 2 |wn - w|, by Rouche's theorem
    against the linear term.  cs, w and wn are (real, imag) pairs.

    The Taylor coefficients b_k of p at wn come from repeated synthetic
    division, and B_k, the same division run on |cs[j]| at |wn|, bounds the
    exact b_k term by term.  The test accepts when
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
    inside as b_1 (y - wn): one.  A NaN, an inf or an overflow rejects.
    Run under np.errstate(all="ignore")."""
    n = len(cs[0]) - 1
    r = 2 * np.hypot(wn[0] - w[0], wn[1] - w[1])
    b = [(cs[0][k], cs[1][k]) for k in range(n, -1, -1)]   # descending
    h = [np.hypot(*c) for c in b]
    aw = np.hypot(*wn)
    for k in range(n):                  # b[n - k] becomes b_k
        for i in range(1, n + 1 - k):
            t = _mul(wn, b[i - 1])
            b[i] = (b[i][0] + t[0], b[i][1] + t[1])
            h[i] = h[i] + aw * h[i - 1]
    a = [np.hypot(*c) for c in b]
    finite = np.isfinite(r) & np.isfinite(aw)
    for v in h + a:
        finite &= np.isfinite(v)
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
    return finite & (lhs > rhs + 8 * (n + 3) * _U * big + eta)


def _same(a, b):
    """Elementwise bit-for-bit equality of two complex arrays."""
    return (a.view(np.int64).reshape(-1, 2)
            == b.view(np.int64).reshape(-1, 2)).all(axis=1)


class BranchTracker:
    """Continuation bookkeeping for one branch of P(x, y) = 0, seeded at a
    point on the curve.  Real-axis values are cached so repeated grid
    evaluations walk from the nearest known point.

    A continuation step from (z, w) to zn runs the corrector `_correct`:
    Newton's method on the fibre polynomial P(zn, .) from w, then the sheet
    guard, which accepts the step w -> wn at the first of three tests that
    holds:
    1. |wn - w| <= |step|;
    2. the Rouche disk test `_disk_test`: the fibre polynomial has exactly
       one root within r = 2 |wn - w| of wn, so every other root lies at
       least 2 |wn - w| from wn;
    3. the fibre roots from `np.roots` (counted in `roots_calls`): |wn - w|
       is at most half the distance from wn to the nearest other root.
    Test 2 proves of the exact roots what test 3 checks of numpy's, so it
    accepts no step that test 3 would reject, up to the rounding of
    np.roots; test 3 still decides every step that test 2 cannot certify.
    `_advance` walks from point to point: steps of at most half the
    distance to the nearest singular point, each halved while the corrector
    rejects it (counted in `halvings`) down to CONTINUATION_STEP_FLOOR.

    A whole real grid (`eval_grid`) or every row of a disk (`eval_path`)
    is one recurrence W_i = step(W_pred(i)), solved by `_sweep` as an exact
    fixed point.  Each sweep runs the corrector, as numpy arrays, at every
    open point whose start value changed since it last ran.  A point is
    final once its start is final and it ran from that start, so a run of
    final points grows while each value equals, bit for bit, the start its
    successor ran from, and every value is the one the point-by-point walk
    gives.  Points the one batched step cannot take (several substeps, a
    step that does not land exactly on the target, tests 1 and 2 failing
    from a final start) go to `_advance` once their start is final, a
    sweep's all in lockstep, and are counted in `single_steps`.

    The cache keys are also kept in a sorted array, so finding the nearest
    known point costs O(log n) comparisons: bisect, then walk outward while
    the distance stays equal.  Among keys at the same (rounded) distance the
    one cached first wins.  A non-finite x raises EvaluationAtSingularity
    before the cache is consulted; a seed that is not a finite point on the
    curve raises ValueError at construction, so no key is ever NaN.  At most
    CONTINUATION_CACHE_CAP values are cached."""

    def __init__(self, P: BivarPoly, seed):
        self.P = P
        self.seed = (complex(seed[0]), complex(seed[1]))
        self.singularities = singular_locus(P)
        self._sing = np.array(self.singularities, dtype=complex)
        r = abs(P(*self.seed))
        if not (all(map(cmath.isfinite, self.seed))
                and r <= CONTINUATION_RESIDUAL):
            raise ValueError(f"seed {seed} is not a finite point on the "
                             f"curve (residual {r:.3g})")
        x0 = self.seed[0].real
        self._real_cache = {x0: self.seed[1]}   # in the order cached
        self._keys = np.array([x0])     # sorted cache keys
        self._ranks = np.array([0])     # their places in the cache order
        self.roots_calls = 0            # np.roots fallbacks of the sheet guard
        self.halvings = 0               # continuation steps halved
        self.single_steps = 0           # points a sweep hands to _advance

    def _sing_dist(self, z):
        """Distance from z (a point or an array) to the nearest singular
        point; |.| is hypot, as Python's abs."""
        z = np.asarray(z, dtype=complex)
        if not self.singularities:
            return np.full(z.shape, math.inf)
        s = self._sing
        return np.hypot(z.real[..., None] - s.real,
                        z.imag[..., None] - s.imag).min(axis=-1)

    def _correct(self, w, zn, h):
        """The corrector at complex arrays of start values w, targets zn and
        step lengths h: Newton from w on the fibre at zn, then tests 1 and 2
        of the sheet guard.  Returns (cs, wn, conv, ok): the fibre
        coefficients (one column per element), Newton's values, where Newton
        converged, and where tests 1 and 2 accept the step."""
        cs = self.P.y_poly_coeffs_complex(zn)
        c, w = (cs.real, cs.imag), (w.real, w.imag)
        with np.errstate(all="ignore"):
            wn, conv = _newton(c, w)
            ok = conv & (np.hypot(wn[0] - w[0], wn[1] - w[1]) <= h)
            rest = np.flatnonzero(conv & ~ok)
            if rest.size:
                ok[rest] = _disk_test((c[0][:, rest], c[1][:, rest]),
                                      (w[0][rest], w[1][rest]),
                                      (wn[0][rest], wn[1][rest]))
        return cs, _pack(*wn), conv, ok

    @staticmethod
    def _roots_guard(cs, w, wn):
        """Test 3 of the sheet guard, at one point."""
        cs = np.trim_zeros(cs, trim="b")
        roots = np.roots(cs[::-1]) if len(cs) > 1 else []
        near = min((abs(r - wn) for r in roots if abs(r - wn) > 1e-12),
                   default=math.inf)
        return abs(wn - w) <= 0.5 * near

    @staticmethod
    def _step_toward(z, z1, d):
        """_advance's next step from z toward z1 (complex arrays), d being
        the distance from z to the nearest singular point: (step, |z1 - z|,
        |step|), with step = (z1 - z) / |z1 - z| * min(|z1 - z|, max(d / 2,
        CONTINUATION_STEP_FLOOR)) rounded as Python's complex arithmetic."""
        rem = (z1.real - z.real, z1.imag - z.imag)
        ab = np.hypot(*rem)
        sl = np.minimum(ab, np.fmax(d / 2, CONTINUATION_STEP_FLOOR))
        with np.errstate(all="ignore"):     # ab = 0: _advance is done
            return _pack(*_mul(_pydiv(rem, (ab, 0.0)), (sl, 0.0))), ab, sl

    def _advance(self, z0, w0, z1):
        """Track each (z0[i], w0[i]) to x = z1[i] (complex arrays) point by
        point, all in lockstep: steps of at most half the distance to the
        nearest singular point, each halved while the corrector rejects it,
        down to CONTINUATION_STEP_FLOOR.  The step arithmetic rounds as
        Python's complex arithmetic.  Returns (w1, errs, roots, halved):
        errs[i] is the error that stopped element i, else None, and roots[i]
        and halved[i] count its np.roots tests and halved steps."""
        floor = CONTINUATION_STEP_FLOOR
        z, w, d = z0.copy(), w0.copy(), self._sing_dist(z0)
        step = np.zeros_like(z)
        errs = [None] * len(z)
        roots, halved = np.zeros(len(z), dtype=int), np.zeros(len(z), dtype=int)
        act, fresh = np.arange(len(z)), np.ones(len(z), dtype=bool)
        with np.errstate(all="ignore"):
            while True:
                # a new step where the last one was accepted; done on arrival
                f = act[fresh[act]]
                step[f], ab, _ = self._step_toward(z[f], z1[f], d[f])
                act = np.setdiff1d(act, f[~(ab > 0)], assume_unique=True)
                fresh[f] = False
                if not act.size:
                    return w, errs, roots, halved
                zn = z[act] + step[act]
                dn = self._sing_dist(zn)
                for j in np.flatnonzero(dn < 10 * floor):
                    errs[act[j]] = PathNearSingularity(
                        "path within floor of singularity at "
                        f"{complex(zn[j])}")
                keep = dn >= 10 * floor
                act, zn, dn = act[keep], zn[keep], dn[keep]
                if not act.size:
                    return w, errs, roots, halved
                h = np.hypot(step.real[act], step.imag[act])
                cs, wn, conv, ok = self._correct(w[act], zn, h)
                for j in np.flatnonzero(conv & ~ok):
                    roots[act[j]] += 1
                    ok[j] = self._roots_guard(cs[:, j], complex(w[act[j]]),
                                              complex(wn[j]))
                a = act[ok]
                z[a], w[a], d[a], fresh[a] = zn[ok], wn[ok], dn[ok], True
                lost = ~ok & (h / 2 < floor)
                for j in np.flatnonzero(lost):
                    errs[act[j]] = BranchJump(
                        f"corrector lost the branch near x = {complex(zn[j])}")
                r = act[~ok & ~lost]
                step[r] = _pack(*_pydiv((step.real[r], step.imag[r]),
                                        (2.0, 0.0)))
                halved[r] += 1
                act = act[~lost]

    def _sweep(self, zs, zt, w0, pred):
        """W[i] = _advance(zs[i], start_i, zt[i]) for every i, the start
        being w0[i] where pred[i] < 0 and W[pred[i]] otherwise (pred[i] < i,
        pred[0] < 0), solved by exact fixed-point sweeps (see the class
        docstring).  Returns (W, err, roots, halved): W for the points
        before the first whose continuation fails, that failure (None if
        there is none), and per point the np.roots tests and halved steps
        of its walk, which the point-by-point walk makes only up to the
        first failure."""
        n = len(zt)
        # the batch takes a point when _advance's first step lands on zt
        step, ab, sl = self._step_toward(zs, zt, self._sing_dist(zs))
        h = np.hypot(step.real, step.imag)
        zero = ~(ab > 0)                # _advance returns its start
        batch = (~zero & (sl == ab) & (zs + step == zt)
                 & (self._sing_dist(zt) >= 10 * CONTINUATION_STEP_FLOOR))
        chained = (pred >= 0) & (pred == np.arange(n) - 1)
        W = w0[np.maximum.accumulate(np.where(pred < 0, np.arange(n), 0))]
        used = np.zeros(n, dtype=complex)  # the start W[i] was computed from
        ran = np.zeros(n, dtype=bool)      # ... once it was
        ok = np.zeros(n, dtype=bool)       # the corrector accepted that step
        final = np.zeros(n, dtype=bool)
        roots, halved = np.zeros(n, dtype=int), np.zeros(n, dtype=int)
        end, err = n, None
        while True:
            todo = np.flatnonzero(~final[:end])
            if not todo.size:
                return W[:end], err, roots, halved
            p = pred[todo]
            known = p < 0
            exact = known | final[p]        # the start is final
            start = np.where(known, w0[todo], W[p])
            # a value depends on its start alone: run the points whose start
            # changed since they last ran
            k = np.flatnonzero((batch[todo] | zero[todo])
                               & ~(ran[todo] & _same(used[todo], start)))
            i, wk = todo[k], start[k]
            W[i[zero[i]]], ok[i[zero[i]]] = wk[zero[i]], True
            b = batch[i]
            if b.any():
                _, wn, conv, ok[i[b]] = self._correct(wk[b], zt[i[b]], h[i[b]])
                W[i[b]] = np.where(conv, wn, W[i[b]])
            used[i], ran[i] = wk, True
            valid = ran[todo] & ok[todo] & _same(used[todo], start)
            # points with a final start that the batch could not take, then
            # the chained points after them that the batch never takes
            ks = np.flatnonzero(exact & ~valid)
            while ks.size:
                ks = ks[todo[ks] < end]
                if not ks.size:
                    break
                i = todo[ks]
                self.single_steps += len(ks)
                w1, errs, roots[i], halved[i] = self._advance(
                    zs[i], start[ks], zt[i])
                bad = [j for j, e in enumerate(errs) if e is not None]
                if bad:     # raised once the points before it are done
                    end, err = i[bad[0]], errs[bad[0]]
                    ks, i, w1 = ks[:bad[0]], i[:bad[0]], w1[:bad[0]]
                W[i], used[i] = w1, start[ks]
                ran[i] = ok[i] = valid[ks] = True
                nxt = i + 1 < n
                ks, i = ks[nxt] + 1, i[nxt] + 1
                more = ((ks < len(todo)) & chained[i] & ~batch[i] & ~zero[i])
                more[more] = todo[ks[more]] == i[more]
                ks = ks[more]
                exact[ks], start[ks] = True, W[i[more] - 1]
            # a run of final points starts at a final start and goes on while
            # each point ran from its predecessor's value, bit for bit
            head = exact & valid
            link = (~exact & chained[todo] & ran[todo] & ok[todo]
                    & _same(used[todo], W[todo - 1]))
            pos = np.arange(len(todo))
            last_head = np.maximum.accumulate(np.where(head, pos, -1))
            last_break = np.maximum.accumulate(np.where(head | link, -1, pos))
            done = head | (link & (last_head > last_break))
            final[todo[done & (todo < end)]] = True

    def _nearest_key(self, xf):
        keys, n = self._keys, len(self._keys)
        lo = int(np.searchsorted(keys, xf)) - 1
        hi = lo + 1
        d = min(abs(keys.item(i) - xf) for i in (lo, hi) if 0 <= i < n)
        tied = []
        while lo >= 0 and abs(keys.item(lo) - xf) == d:
            tied.append(lo)
            lo -= 1
        while hi < n and abs(keys.item(hi) - xf) == d:
            tied.append(hi)
            hi += 1
        return keys.item(min(tied, key=self._ranks.item))

    def _starts(self, X):
        """Where eval_real continues each point of X from when the sorted,
        uncached points X are evaluated in increasing order: (zs, w0, pred),
        pred[i] = j when it continues from X[j], else -1 and it continues
        from the cached key zs[i] with value w0[i]."""
        K, R, n, m = self._keys, self._ranks, len(self._keys), len(X)
        hi = np.searchsorted(K, X)
        lo, lc, hc = hi - 1, np.maximum(hi - 1, 0), np.minimum(hi, n - 1)
        dlo = np.where(lo >= 0, np.abs(K[lc] - X), math.inf)
        dhi = np.where(hi < n, np.abs(K[hc] - X), math.inf)
        d = np.minimum(dlo, dhi)
        use_lo, use_hi = (lo >= 0) & (dlo == d), (hi < n) & (dhi == d)
        old = np.where(use_lo & ~(use_hi & (R[hc] < R[lc])), lc, hc)
        # a third key at the same rounded distance: walk as eval_real does
        far = (((lo >= 1) & (np.abs(K[np.maximum(lo - 1, 0)] - X) == d))
               | ((hi < n - 1)
                  & (np.abs(K[np.minimum(hi + 1, n - 1)] - X) == d)))
        for i in np.flatnonzero(far):
            old[i] = np.searchsorted(K, self._nearest_key(X.item(i)))
        # X[:q] are cached by then, q as far as the cap leaves room; the
        # nearest of them is X[q - 1] unless rounding ties an earlier one
        q = np.minimum(np.arange(m),
                       max(0, CONTINUATION_CACHE_CAP - len(self._real_cache)))
        j = q - 1
        dn = np.where(q > 0, X - X[np.maximum(j, 0)], math.inf)
        for i in np.flatnonzero((q > 1) & (X - X[np.maximum(j - 1, 0)] == dn)):
            j[i] = np.flatnonzero(X[i] - X[:q[i]] == dn[i])[0]
        pred = np.where(d <= dn, -1, j)     # equal: the key cached first
        zs = np.where(pred < 0, K[old], X[np.maximum(pred, 0)])
        w0 = np.zeros(m, dtype=complex)
        w0[pred < 0] = [self._real_cache[k] for k in K[old[pred < 0]].tolist()]
        return zs.astype(complex), w0, pred

    def _remember(self, xs, ws):
        """Cache the values ws at the new keys xs, in order, while there is
        room."""
        xs, ws = np.atleast_1d(xs), np.atleast_1d(ws)
        room = CONTINUATION_CACHE_CAP - len(self._real_cache)
        k = max(0, min(len(xs), room))
        xs = xs[:k]
        r0 = len(self._real_cache)
        self._real_cache.update(zip(xs.tolist(), ws[:k].tolist()))
        at = np.searchsorted(self._keys, xs)
        self._keys = np.insert(self._keys, at, xs)
        self._ranks = np.insert(self._ranks, at, np.arange(r0, r0 + k))

    def eval_real(self, x):
        return complex(self.eval_grid(np.array([float(x)]))[0])

    def eval_grid(self, xs, check=None):
        """eval_real at every point of the real array xs, taken in
        increasing order, as one sweep: the same values, cache and counters
        afterwards and, on a failure, the error of the first failing point
        with the points before it cached.  check(x, w), given the points
        evaluated (sorted, without repeats) and their values, may return
        (k, error) for the first point its caller rejects: as when the
        caller checks each value of eval_real in turn, that point is cached,
        no later one is, and the error is raised.  A non-finite x raises
        EvaluationAtSingularity before anything is evaluated."""
        xs = np.asarray(xs, dtype=float)
        bad = ~np.isfinite(xs)
        if bad.any():
            raise EvaluationAtSingularity(
                f"branch evaluated at x = {xs[bad].flat[0]}")
        keys, inv, reps = np.unique(xs.ravel(), return_inverse=True,
                                    return_counts=True)
        K = self._keys
        hit = K[np.minimum(np.searchsorted(K, keys), len(K) - 1)] == keys
        vals = np.empty(len(keys), dtype=complex)
        vals[hit] = [self._real_cache[k] for k in keys[hit].tolist()]
        new = np.flatnonzero(~hit)
        W, err, roots, halved = np.empty(0, dtype=complex), None, 0, 0
        if new.size:
            zs, w0, pred = self._starts(keys[new])
            W, err, roots, halved = self._sweep(
                zs, keys[new].astype(complex), w0, pred)
            vals[new[:len(W)]] = W
        done = len(keys) if err is None else new[len(W)]
        walked, cached = done + 1, done     # key positions, as eval_real
        rejected = check(keys[:done], vals[:done]) if check else None
        if rejected:
            k, err = rejected
            walked = cached = k + 1
        # a point past the cap is walked again at each repeat, but one that
        # fails or is rejected only once
        room = CONTINUATION_CACHE_CAP - len(self._real_cache)
        times = np.where(np.arange(len(new)) < room, 1, reps[new])
        times = np.where(new == walked - 1, 1, times) * (new < walked)
        self.roots_calls += int(np.sum(roots * times))
        self.halvings += int(np.sum(halved * times))
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
        pred = np.arange(rows.size) - 1
        pred[::rows.shape[1]] = -1
        W, err, roots, halved = self._sweep(
            zs.ravel(), rows.ravel(), np.full(rows.size, self.seed[1]), pred)
        self.roots_calls += int(roots[:len(W) + 1].sum())
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
        return 2 + len(self.rat.num.coeffs) + len(self.rat.den.coeffs)

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
        if not isinstance(f, RationalExpr):
            f = RationalExpr(*rat)
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
