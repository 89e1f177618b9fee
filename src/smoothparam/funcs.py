"""Function classes every pipeline consumes: exact rational closed forms,
radical/composition trees, algebraic branches of P(x, y) = 0 tracked by
continuation, and blackboxes with declared zero-count bounds.

Symbolic differentiation is closed on the tree; rational subtrees are kept
collapsed to num/den pairs so high-order derivatives stay cheap and exact."""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, insort
from fractions import Fraction

import numpy as np

from .bivar import BivarPoly, BivarRational, resultant_y
from .config import DEFAULT, Config
from .errors import (BranchJump, DegenerateInY, EvaluationAtSingularity,
                     OrderOverflow, PathNearSingularity, ZeroCountMismatch)
from .poly import _U, Poly, _fr, complex_roots, isolate_roots

EXPR_SIZE_CAP = 200_000              # nodes, symbolic differentiation cap
BISECT_SAMPLES_PER_UNIT = 4096       # sign-change scan of a non-rational f
CONTINUATION_RESIDUAL = 1e-10        # |P(x, y)| accepted on the curve
CONTINUATION_STEP_FLOOR = 1e-12      # smallest continuation step


def _is_exact(x):
    return isinstance(x, (Fraction, int))


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
    """Base class.  Subclasses implement eval (one point, exact where the
    input is), eval_array (over a real or complex numpy array; the one
    numeric evaluator) and deriv.  eval_array is elementwise, except that a
    branch reads each row (last axis) of a complex array as one continuation
    path from its seed, so a row's points must follow one another closely."""

    def deriv(self) -> "FunctionExpr":
        raise NotImplementedError

    def eval(self, x):
        raise NotImplementedError

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

    # derivative chain with caching
    def derivative_chain(self, order: int):
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

    def deriv(self):
        if self.is_poly():
            return RationalExpr(self.num.deriv() * (1 / self.den.coeffs[0]))
        n = self.num.deriv() * self.den - self.num * self.den.deriv()
        d = self.den * self.den
        g = n.gcd(d)
        if g.degree > 0:
            n, d = n // g, d // g
        return RationalExpr(n, d)

    def eval(self, x):
        if _is_exact(x):
            dv = self.den(_fr(x))
            if dv == 0:
                raise EvaluationAtSingularity(f"pole at {x}")
            return self.num(_fr(x)) / dv
        dv = self.den(float(x))
        if dv == 0:
            raise EvaluationAtSingularity(f"pole at {x}")
        return self.num(float(x)) / dv

    def eval_array(self, xs):
        return self.num.eval_array(xs) / self.den.eval_array(xs)


class SqrtExpr(FunctionExpr):
    def __init__(self, inner: FunctionExpr):
        self.inner = inner

    def size(self):
        return self.inner.size() + 1

    def deriv(self):
        # (sqrt f)' = f' / (2 sqrt f)
        return MulExpr(self.inner.deriv(),
                       PowExpr(self, -1)) * Fraction(1, 2)

    def __mul__(self, c):
        return MulExpr(self, ConstExpr(c))

    def eval(self, x):
        v = self.inner.eval(x)
        if _is_exact(v):
            r = _sqrt_exact(_fr(v))
            if r is not None:
                return r
            return math.sqrt(float(v))
        return math.sqrt(v)

    def eval_array(self, xs):
        return np.sqrt(self.inner.eval_array(xs))


class ConstExpr(FunctionExpr):
    def __init__(self, c):
        self.c = _fr(c)

    def deriv(self):
        return ConstExpr(0)

    def as_rational(self):
        return (Poly([self.c]), Poly([1]))

    def eval(self, x):
        return self.c if _is_exact(x) else float(self.c)

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

    def eval(self, x):
        return sum(t.eval(x) for t in self.terms)

    def eval_array(self, xs):
        acc = np.zeros_like(xs)
        for t in self.terms:
            acc = acc + t.eval_array(xs)
        return acc


class MulExpr(FunctionExpr):
    def __init__(self, f, g):
        self.f, self.g = _wrap(f), _wrap(g)

    def __mul__(self, c):
        return MulExpr(self, ConstExpr(c))

    def size(self):
        return 1 + self.f.size() + self.g.size()

    def deriv(self):
        return simplify(AddExpr(MulExpr(self.f.deriv(), self.g),
                                MulExpr(self.f, self.g.deriv())))

    def eval(self, x):
        return self.f.eval(x) * self.g.eval(x)

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

    def eval(self, x):
        v = self.f.eval(x)
        if self.n < 0 and v == 0:
            raise EvaluationAtSingularity("zero base with negative power")
        if _is_exact(v):
            return _fr(v) ** self.n
        return float(v) ** self.n

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

    def eval(self, x):
        return self.outer.eval(self.inner.eval(x))

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
        vals = f.eval_array(xs)
    except Exception:   # a pole, a lost branch or a blackbox failure alike
        return f, {}
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


def _horner(cs, w):
    """sum cs[i] * w^(n-1-i) in Python complex arithmetic."""
    y = 0j
    for c in cs:
        y = y * w + c
    return y


def _cdiv(a, b):
    """a / b for b != 0 by numpy's complex-division formula (Smith's method
    through a reciprocal), which rounds differently from Python's `/`."""
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        scl = 1.0 / (b.real + b.imag * rat)
        return complex((a.real + a.imag * rat) * scl,
                       (a.imag - a.real * rat) * scl)
    rat = b.real / b.imag
    scl = 1.0 / (b.imag + b.real * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _one_root_in_disk(cs, w, wn) -> bool:
    """True only if p(y) = sum cs[j] y^j has exactly one root in the open
    disk |y - wn| < r, r = 2 |wn - w|, by Rouche's theorem against the
    linear term.

    The Taylor coefficients b_k of p at wn come from repeated synthetic
    division in Python complex, and B_k, the same division run on |cs[j]|
    at |wn|, bounds the exact b_k term by term.  The test accepts when
        |b_1| r > |b_0| + sum_{k>=2} |b_k| r^k + 8(n+3) u H + eta,
    H = sum_k B_k r^k, u = 2^-53, n = len(cs) - 1.  To first order the
    shift loses at most (sqrt(5) n + n + 1) u B_k in b_k (a complex product
    rounds within sqrt(5) u, a sum within u), and the abs values, powers
    and sums at most (2n + 8) u H more, so 8(n+3) u H covers every rounding
    above the underflow threshold; eta = (n+3)^2 2^-1070 (2 max(1, |wn|)
    max(1, r))^n covers the absolute errors of subnormal products.  On the
    circle |y - wn| = r the exact |p - b_1 (y - wn)| is then below
    |b_1 (y - wn)|, so p has as many zeros inside as b_1 (y - wn): one.
    A NaN, an inf or an overflow rejects."""
    n, r = len(cs) - 1, 2 * abs(wn - w)
    try:
        b = cs[::-1].tolist()               # descending, Python complex
        h = [abs(c) for c in b]
        aw = abs(wn)
        for k in range(n):                  # b[n - k] becomes b_k
            for i in range(1, n + 1 - k):
                b[i] = b[i] + wn * b[i - 1]
                h[i] = h[i] + aw * h[i - 1]
        lhs = abs(b[n - 1]) * r
        rhs, big = abs(b[n]), h[n] + h[n - 1] * r
        eta = (n + 3) ** 2 * 2.0 ** -1070
        grow, rk = 2 * max(1.0, aw) * max(1.0, r), r
        for k in range(2, n + 1):
            rk *= r
            rhs += abs(b[n - k]) * rk
            big += h[n - k] * rk
        for _ in range(n):
            eta *= grow
        return lhs > rhs + 8 * (n + 3) * _U * big + eta
    except OverflowError:
        return False


class BranchTracker:
    """Continuation bookkeeping for one branch of P(x, y) = 0, seeded at a
    point on the curve.  Real-axis values are cached so repeated grid
    evaluations walk from the nearest known point.

    The cache keys are also kept in a sorted list, so finding the nearest
    known point costs O(log n) comparisons: bisect, then walk outward while
    the distance stays equal.  Among keys at the same (rounded) distance the
    one cached first wins.  A non-finite x raises EvaluationAtSingularity
    before the cache is consulted; a seed that is not a finite point on the
    curve raises ValueError at construction, so no key is ever NaN.

    The sheet guard in `_on_sheet` accepts a corrector step w -> wn at the
    first of three tests that holds:
    1. |wn - w| <= |step|;
    2. the Rouche disk test `_one_root_in_disk`: the fibre polynomial has
       exactly one root within r = 2 |wn - w| of wn, so every other root
       lies at least 2 |wn - w| from wn;
    3. the fibre roots from `np.roots` (counted in `roots_calls`): |wn - w|
       is at most half the distance from wn to the nearest other root.
    Test 2 proves of the exact roots what test 3 checks of numpy's, so it
    accepts no step that test 3 would reject, up to the rounding of
    np.roots; test 3 still decides every step that test 2 cannot certify."""

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
        self._real_cache = {x0: self.seed[1]}
        self._keys = [x0]               # sorted cache keys
        self._rank = {x0: 0}            # insertion order, breaks distance ties
        self.roots_calls = 0            # np.roots fallbacks of the sheet guard

    def _min_sing_dist(self, z: complex):
        if not self.singularities:
            return math.inf
        return min(abs(z - s) for s in self.singularities)

    def _newton(self, cs, w0):
        """Newton's method on sum cs[j] y^j from w0; None if it fails."""
        # Python complex Horner and numpy's quotient formula: on the real
        # axis (zero imaginary parts) this rounds exactly as numpy's array
        # arithmetic does; off it numpy fuses complex products on CPUs with
        # FMA, so values there can differ from numpy's in the last bit.
        p = cs[::-1].tolist()
        dp = [c * k for k, c in enumerate(cs.tolist())][:0:-1]
        w = w0
        for _ in range(50):
            dv = _horner(dp, w)
            if dv == 0:
                return None
            step = _cdiv(_horner(p, w), dv)
            w = w - step
            if abs(step) <= 1e-15 * max(1.0, abs(w)):
                break
        if abs(_horner(p, w)) > CONTINUATION_RESIDUAL:
            return None
        return w

    def _on_sheet(self, cs, w, wn, step):
        """The sheet guard (see the class docstring) for the step w -> wn
        over the fibre polynomial with coefficients cs."""
        gap = abs(wn - w)
        if gap <= abs(step) or _one_root_in_disk(cs, w, wn):
            return True
        self.roots_calls += 1
        cs = np.trim_zeros(cs, trim="b")
        roots = np.roots(cs[::-1]) if len(cs) > 1 else []
        near = min((abs(r - wn) for r in roots if abs(r - wn) > 1e-12),
                   default=math.inf)
        return gap <= 0.5 * near

    def _advance(self, z0, w0, z1):
        """Track from (z0, w0) to x = z1; returns w1."""
        z, w = z0, w0
        d = self._min_sing_dist(z)
        remaining = z1 - z
        while abs(remaining) > 0:
            step_len = min(abs(remaining), max(d / 2, CONTINUATION_STEP_FLOOR))
            step = remaining / abs(remaining) * step_len
            while True:
                zn = z + step
                dn = self._min_sing_dist(zn)
                if dn < 10 * CONTINUATION_STEP_FLOOR:
                    raise PathNearSingularity(f"path within floor of singularity at {zn}")
                cs = self.P.y_poly_coeffs_complex(zn)
                wn = self._newton(cs, w)
                if wn is not None and self._on_sheet(cs, w, wn, step):
                    break
                if abs(step) / 2 < CONTINUATION_STEP_FLOOR:
                    raise BranchJump(f"corrector lost the branch near x = {zn}")
                step /= 2
            z, w, d = zn, wn, dn
            remaining = z1 - z
        return w

    def _nearest_key(self, xf):
        keys, n = self._keys, len(self._keys)
        lo = bisect_left(keys, xf) - 1
        hi = lo + 1
        d = min(abs(keys[i] - xf) for i in (lo, hi) if 0 <= i < n)
        tied = []
        while lo >= 0 and abs(keys[lo] - xf) == d:
            tied.append(keys[lo])
            lo -= 1
        while hi < n and abs(keys[hi] - xf) == d:
            tied.append(keys[hi])
            hi += 1
        return min(tied, key=self._rank.__getitem__)

    def eval_real(self, x):
        xf = float(x)
        if not math.isfinite(xf):
            raise EvaluationAtSingularity(f"branch evaluated at x = {xf}")
        if xf in self._real_cache:
            return self._real_cache[xf]
        near = self._nearest_key(xf)
        w = self._advance(complex(near), self._real_cache[near], complex(xf))
        self._remember(xf, w)
        return w

    def _remember(self, xf, w):
        if len(self._real_cache) < 100_000:
            self._real_cache[xf] = w
            self._rank[xf] = len(self._rank)
            insort(self._keys, xf)

    def eval_path(self, path):
        """Values of the branch along an explicit complex path (list of points).
        The path must start reachable from the seed."""
        out = []
        z0, w0 = self.seed
        z, w = z0, w0
        for p in path:
            w = self._advance(z, w, complex(p))
            z = complex(p)
            out.append(w)
        return out


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

    def eval(self, x):
        w = self.tracker.eval_real(x)
        if abs(w.imag) > 1e-8:
            raise EvaluationAtSingularity(
                f"branch left the real line at x = {x} (w = {w})")
        if self.rat is None:
            return w.real
        return self.rat(float(x), w.real)

    def eval_array(self, xs):
        """Real xs: each point continued from the nearest cached real point,
        in increasing order.  Complex xs: each row (last axis) is one
        continuation path, entered from the seed and continued point to
        point; a 1-D array is one row.  rat is applied point by point."""
        if np.iscomplexobj(xs):
            rows = xs.reshape(-1, xs.shape[-1]).tolist()
            ws = [w for row in rows for w in self.tracker.eval_path(row)]
            if self.rat is not None:
                zs = [z for row in rows for z in row]
                ws = [self.rat(z, w) for z, w in zip(zs, ws)]
            return np.array(ws, dtype=complex).reshape(xs.shape)
        order = np.argsort(xs)
        out = np.empty_like(xs, dtype=float)
        for i in order:
            out[i] = self.eval(float(xs[i]))
        return out


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
        if self._level < len(self.deriv_fns):
            return BlackboxExpr(self.deriv_fns[self._level], self.zero_count,
                                self.deriv_fns, _level=self._level + 1)
        h = 1e-5
        f = self.fn
        return BlackboxExpr(lambda x: (f(x + h) - f(x - h)) / (2 * h),
                            self.zero_count, _level=self._level + 1)

    def eval(self, x):
        return self.fn(float(x))

    def eval_array(self, xs):
        return np.array([self.fn(x) for x in xs.ravel().tolist()]
                        ).reshape(xs.shape)


# -- the poly_core operations -------------------------------------------------

def isolate_real_zeros(f: FunctionExpr, interval):
    """Disjoint isolating intervals for the real zeros of f on the interval.

    Exact for rational f (`poly.isolate_roots`, Descartes bisection); sampled
    sign-change bisection otherwise, with the declared zero count as a
    completeness check for blackboxes."""
    lo, hi = interval
    rat = f.as_rational()
    if rat is not None:
        num, den = rat
        if num.is_zero():
            raise ValueError("identically zero function")
        pole_set = set()
        if den.degree > 0:
            pole_set = {(a, b) for a, b in isolate_roots(den, lo, hi)}
        zeros = isolate_roots(num, _fr(lo), _fr(hi))
        return [z for z in zeros if z not in pole_set]
    # sampled bisection
    n = max(16, int(BISECT_SAMPLES_PER_UNIT * (float(hi) - float(lo))))
    xs = np.linspace(float(lo), float(hi), n + 1)
    vals = f.eval_array(xs)
    out = []
    for i in range(n):
        a, b, va, vb = xs[i], xs[i + 1], vals[i], vals[i + 1]
        if va == 0:
            out.append((a, a))
            continue
        if va * vb < 0:
            for _ in range(60):
                m = 0.5 * (a + b)
                vm = float(f.eval(m))
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
