"""Determinant-method machinery: combinatorial exponents, the interpolation
determinant bound, exact rational-point enumeration on graphs, and the
ball-cover argument putting dilation-t integral points on few low-degree
hypersurfaces.

All point arithmetic and rank tests are exact; floats appear only in
derivative-norm estimation and ball sizing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from .charts import sampled_sup
from .errors import (CoverTestFailed, EvaluationAtSingularity, InexactCurve,
                     PreconditionFailed)
from .funcs import (AddExpr, FunctionExpr, MulExpr, PowExpr,
                    RationalExpr, SqrtExpr, _sqrt_exact, _wrap)
from .poly import Poly, _fr, _horner_int, _int_scaled, bareiss

MK_SAFETY = 1.10                     # inflate sampled C^k norms by 10%
MK_SAMPLES = 512                     # sample points for a C^k norm
ENUMERATE_CAP = 10**6                # candidate x numerators per count
HYPERSURFACE_DEGREE_CAP = 16         # largest cover degree; cost grows fast in d


def binom(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def D_table(s: int, l: int) -> int:
    """Dimension of polynomials of degree <= l in s variables."""
    return binom(s + l, s)


def L_table(s: int, l: int) -> int:
    """Dimension of the degree-exactly-l homogeneous layer in s variables."""
    return binom(s + l - 1, s - 1)


@dataclass
class BPCombinatorics:
    n: int
    m: int
    k: int
    e: int
    tau: int = None
    kappa_printed: int = None
    kappa_truncated: int = None

    def epsilon_exponent(self, variant: str = "as_printed") -> Fraction:
        kappa = (self.kappa_printed if variant == "as_printed"
                 else self.kappa_truncated)
        return Fraction(kappa * self.n, self.e)


def bp_combinatorics(n: int, m: int) -> BPCombinatorics:
    if n < 1 or m < 1:
        raise ValueError("need n, m >= 1")
    k = 0
    while D_table(n, k + 1) <= m:
        k += 1
    assert D_table(n, k) <= m < D_table(n, k + 1)
    e = sum(L_table(n, l) * l for l in range(k + 1)) + (k + 1) * (m - D_table(n, k))
    return BPCombinatorics(n=n, m=m, k=k, e=e)


def bp_for_degree(n: int, m_ambient: int, d: int) -> BPCombinatorics:
    """Combinatorics for the degree-d hypersurface cover: tau is the monomial
    count in the ambient space, and the exponent table is computed at m = tau."""
    tau = D_table(m_ambient, d)
    base = bp_combinatorics(n, tau)
    base.tau = tau
    base.kappa_printed = sum(L_table(n, l) * l for l in range(tau + 1))
    base.kappa_truncated = sum(L_table(n, l) * l for l in range(base.k + 1))
    return base


# -- interpolation determinant bound ------------------------------------------

def _all_derivative_max(funcs, order: int, lo: float, hi: float) -> float:
    """max |f^(i)| over MK_SAMPLES points of [lo, hi], every f of funcs and
    i <= order, sampled order by order: the first NaN or inf sampled is
    returned at once, before any higher derivative is built."""
    xs = np.linspace(lo, hi, MK_SAMPLES)
    funcs = [_wrap(f) for f in funcs]
    worst = 0.0
    for i in range(order + 1):
        for f in funcs:
            v = sampled_sup(f.derivative_chain(i)[i], xs)
            if not math.isfinite(v):
                return v
            worst = max(worst, v)
    return worst


def _all_partial_max_2d(polys, order: int) -> float:
    """max |partial derivative of order <= order| over [-1, 1]^2."""
    n = int(math.sqrt(MK_SAMPLES)) + 1
    worst = 0.0
    for p in polys:
        stack = {(0, 0): p}
        for total in range(order + 1):
            for ox in range(total + 1):
                oy = total - ox
                q = stack.get((ox, oy))
                if q is None:
                    src = stack[(ox - 1, oy)] if ox else stack[(ox, oy - 1)]
                    q = src.dx() if ox else src.dy()
                    stack[(ox, oy)] = q
                worst = max(worst, q.max_abs_on_unit_square(n))
    return worst


def vandermonde_bound_check(phi, points, r: float, n: int = 1):
    """Interpolation determinant |det(phi_i(z_j))| against the combinatorial
    bound m! [D_n(k) M_k]^m r^e.  The bound holds for any smooth map and any
    points inside a radius-r ball; a failure indicates an arithmetic bug."""
    m = len(phi)
    if len(points) != m:
        raise ValueError("need exactly m points for an m-component map")
    comb = bp_combinatorics(n, m)
    # M_k is the C^k norm over the whole unit cube, not just the ball
    if n == 1:
        Mk = _all_derivative_max(phi, comb.k, -1.0, 1.0)
        rows = [[float(_wrap(f).eval(float(z))) for z in points] for f in phi]
    else:
        Mk = _all_partial_max_2d(phi, comb.k)
        rows = [[float(f(float(z[0]), float(z[1]))) for z in points]
                for f in phi]
    Mk = max(Mk, 1e-300) * MK_SAFETY
    delta = abs(float(np.linalg.det(np.array(rows, dtype=float))))
    bound = math.factorial(m) * (D_table(n, comb.k) * Mk) ** m * r ** comb.e
    return {"delta": delta, "bound": bound, "pass": delta <= bound,
            "k": comb.k, "e": comb.e, "Mk": Mk}


# -- exact point enumeration --------------------------------------------------

def _eval_exact(f: FunctionExpr, x: Fraction):
    """('rational', value) or ('irrational', None); raises InexactCurve when
    rationality cannot be decided exactly."""
    if isinstance(f, RationalExpr):
        return ("rational", f.eval(x))
    if isinstance(f, SqrtExpr):
        kind, v = _eval_exact(f.inner, x)
        if kind == "irrational":
            return ("irrational", None)     # sqrt of an irrational is irrational
        if v < 0:
            raise EvaluationAtSingularity(f"sqrt of {v} at x = {x}")
        r = _sqrt_exact(v)
        return ("rational", r) if r is not None else ("irrational", None)
    if isinstance(f, PowExpr):
        kind, v = _eval_exact(f.f, x)
        if kind == "rational":
            if v == 0 and f.n < 0:
                raise EvaluationAtSingularity(f"0 to the power {f.n} at x = {x}")
            return ("rational", v ** f.n)
        raise InexactCurve("integer power of an irrational is undecidable here")
    if isinstance(f, MulExpr):
        ka, va = _eval_exact(f.f, x)
        kb, vb = _eval_exact(f.g, x)
        if ka == kb == "rational":
            return ("rational", va * vb)
        if ka == "rational" and va == 0 or kb == "rational" and vb == 0:
            return ("rational", Fraction(0))
        if "rational" in (ka, kb):
            return ("irrational", None)     # nonzero rational times irrational
        raise InexactCurve("product of two irrational values is undecidable")
    if isinstance(f, AddExpr):
        total = Fraction(0)
        irr = 0
        for t in f.terms:
            kind, v = _eval_exact(t, x)
            if kind == "rational":
                total += v
            else:
                irr += 1
        if irr == 0:
            return ("rational", total)
        if irr == 1:
            return ("irrational", None)
        raise InexactCurve("sum of several irrational terms is undecidable")
    raise InexactCurve(f"cannot evaluate {type(f).__name__} exactly")


def _int_evaluator(f: FunctionExpr, t: int):
    """f compiled, once per t, into a map from a numerator a to a pair of
    integers (p, q) with f(a/t) = p/q, or None where f(a/t) is irrational.
    The pairs are unreduced and q may be negative.  Each node follows
    _eval_exact's rule and raises what it raises; a node _eval_exact cannot
    evaluate raises InexactCurve when first reached, as it does there."""
    if isinstance(f, RationalExpr):
        # num(a/t) = H(Dn, a)/sn and den(a/t) = H(Dd, a)/sd
        Dn, sn = _int_scaled(f.num, t)
        Dd, sd = _int_scaled(f.den, t)

        def rational(a):
            d = _horner_int(Dd, a)
            if d == 0:
                raise EvaluationAtSingularity(f"pole at {Fraction(a, t)}")
            return _horner_int(Dn, a) * sd, sn * d
        return rational
    if isinstance(f, SqrtExpr):
        inner = _int_evaluator(f.inner, t)

        def sqrt(a):
            v = inner(a)
            if v is None:
                return None
            p, q = v
            if q < 0:
                p, q = -p, -q
            if p < 0:
                raise EvaluationAtSingularity(
                    f"sqrt of {Fraction(p, q)} at x = {Fraction(a, t)}")
            g = math.gcd(p, q)
            p, q = p // g, q // g
            rp, rq = math.isqrt(p), math.isqrt(q)
            return (rp, rq) if rp * rp == p and rq * rq == q else None
        return sqrt
    if isinstance(f, PowExpr):
        base, n = _int_evaluator(f.f, t), f.n

        def power(a):
            v = base(a)
            if v is None:
                raise InexactCurve(
                    "integer power of an irrational is undecidable here")
            p, q = v
            if n >= 0:
                return p ** n, q ** n
            if p == 0:
                raise EvaluationAtSingularity(
                    f"0 to the power {n} at x = {Fraction(a, t)}")
            return q ** -n, p ** -n
        return power
    if isinstance(f, MulExpr):
        fe, ge = _int_evaluator(f.f, t), _int_evaluator(f.g, t)

        def product(a):
            u, v = fe(a), ge(a)
            if u is not None and v is not None:
                return u[0] * v[0], u[1] * v[1]
            if u is not None and u[0] == 0 or v is not None and v[0] == 0:
                return 0, 1
            if u is None and v is None:
                raise InexactCurve(
                    "product of two irrational values is undecidable")
            return None                     # nonzero rational times irrational
        return product
    if isinstance(f, AddExpr):
        terms = [_int_evaluator(g, t) for g in f.terms]

        def total(a):
            p, q, irr = 0, 1, 0
            for term in terms:
                v = term(a)
                if v is None:
                    irr += 1
                else:
                    p, q = p * v[1] + v[0] * q, q * v[1]
            if irr == 0:
                return p, q
            if irr == 1:
                return None
            raise InexactCurve("sum of several irrational terms is undecidable")
        return total

    def unsupported(a):
        raise InexactCurve(f"cannot evaluate {type(f).__name__} exactly")
    return unsupported


def _check_t(t):
    if t < 1:
        raise PreconditionFailed(f"t must be >= 1, got {t}")


def enumerate_points(f: FunctionExpr, interval, t: int):
    """All (x, f(x)) with x in the interval and t*x, t*f(x) both integers.

    Exact integer arithmetic, no tolerance: f(a/t) = p/q is a point iff q
    divides t*p, and Fractions are built only for the points.  Curves that
    cannot be evaluated exactly raise InexactCurve rather than guessing
    near-integrality.  brute_force_points is the Fraction oracle at one t,
    and brute_force_sweep gives its rows for t = 1..T in layers."""
    _check_t(t)
    f = _wrap(f)
    lo, hi = _fr(interval[0]), _fr(interval[1])
    a0 = math.ceil(lo * t)
    a1 = math.floor(hi * t)
    if a1 - a0 + 1 > ENUMERATE_CAP:
        raise PreconditionFailed(f"candidate count {a1 - a0 + 1} exceeds "
                                 f"ENUMERATE_CAP = {ENUMERATE_CAP}")
    ev = _int_evaluator(f, t)
    out = []
    for a in range(a0, a1 + 1):
        v = ev(a)
        if v is not None and t * v[0] % v[1] == 0:
            out.append((Fraction(a, t), Fraction(*v)))
    return out


def brute_force_points(f: FunctionExpr, interval, t: int):
    """Independent oracle: loop over numerator candidates a for x, accepting
    (a/t, y) iff y = f(a/t), evaluated over Q by _eval_exact, is a rational
    whose denominator divides t.  brute_force_sweep gives the same rows for
    a whole sweep of t, evaluating each reduced x once."""
    _check_t(t)
    f = _wrap(f)
    lo, hi = _fr(interval[0]), _fr(interval[1])
    out = []
    for a in range(math.ceil(lo * t), math.floor(hi * t) + 1):
        x = Fraction(a, t)
        kind, y = _eval_exact(f, x)
        if kind == "rational" and t % y.denominator == 0:
            out.append((x, y))
    return out


def brute_force_sweep(f: FunctionExpr, interval, T: int):
    """Yields set(brute_force_points(f, interval, t)) for t = 1..T in turn,
    evaluating each reduced x = p/q once, at step q and in p order, so a
    bad x raises at its first row.  (x, y) is in row t iff L = lcm(q,
    den y) divides t, so step q files it under L and row t unites the files
    under the divisors of t.  Raises PreconditionFailed before evaluating
    anything when the T rows hold more than ENUMERATE_CAP candidates."""
    _check_t(T)
    f = _wrap(f)
    lo, hi = _fr(interval[0]), _fr(interval[1])
    total = 0
    for t in range(1, T + 1):
        total += max(0, math.floor(hi * t) - math.ceil(lo * t) + 1)
        if total > ENUMERATE_CAP:
            raise PreconditionFailed(
                f"candidate count of the sweep to t = {T} exceeds "
                f"ENUMERATE_CAP = {ENUMERATE_CAP}")
    filed = {}
    for t in range(1, T + 1):
        for p in range(math.ceil(lo * t), math.floor(hi * t) + 1):
            if math.gcd(p, t) == 1:
                x = Fraction(p, t)
                kind, y = _eval_exact(f, x)
                if kind == "rational" and (
                        L := math.lcm(t, y.denominator)) <= T:
                    filed.setdefault(L, []).append((x, y))
        yield {pt for d in range(1, math.isqrt(t) + 1) if t % d == 0
               for L in {d, t // d} for pt in filed.get(L, ())}


# -- hypersurface cover -------------------------------------------------------

def _monomials(m: int, d: int):
    """Exponent tuples of total degree <= d in m variables, ordered."""
    out = []
    for total in range(d + 1):
        for combo in combinations_with_replacement(range(m), total):
            alpha = [0] * m
            for v in combo:
                alpha[v] += 1
            out.append(tuple(alpha))
    return out


def on_hypersurface(points, d: int, m: int = None) -> bool:
    """True iff all points lie on one algebraic hypersurface of degree <= d:
    the Veronese matrix of the points has rank < tau = D_m(d)."""
    if not points:
        return True
    m = m if m is not None else len(points[0])
    tau = D_table(m, d)
    monos = _monomials(m, d)
    rows = []
    for p in points:
        p = [_fr(c) for c in p]
        row = []
        for alpha in monos:
            v = Fraction(1)
            for c, a in zip(p, alpha):
                v *= c ** a
            row.append(v)
        # scaling a row by its common denominator leaves the rank alone
        L = math.lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (L // v.denominator) for v in row])
    return bareiss(rows)[0] < tau


def hypersurface_cover(f: FunctionExpr, interval, t: int, d: int):
    """Cover the parameter interval by balls sized so each ball's dilation-t
    integral points lie on a single degree-d curve; verify per ball by the
    exact rank test."""
    _check_t(t)
    if not 1 <= d <= HYPERSURFACE_DEGREE_CAP:
        raise PreconditionFailed(
            f"d must be between 1 and {HYPERSURFACE_DEGREE_CAP}, got {d}")
    f = _wrap(f)
    lo, hi = float(interval[0]), float(interval[1])
    comb = bp_for_degree(1, 2, d)
    tau, ktil, etil = comb.tau, comb.k, comb.e
    kappa = comb.kappa_printed

    # M_k of the Veronese composition (x, f(x)) -> monomials of degree <= d
    rat = f.as_rational()
    comps = []
    for (i, j) in _monomials(2, d):
        if rat is not None:
            num = Poly([0, 1]) ** i * rat[0] ** j
            den = rat[1] ** j
            comps.append(RationalExpr(num, den))
        else:
            comps.append(MulExpr(PowExpr(RationalExpr(Poly([0, 1])), i),
                                 PowExpr(f, j)))
    Mk = _all_derivative_max(comps, ktil, lo, hi) * MK_SAFETY
    Mk = max(Mk, 1.0)

    # solve tau! [D_1(ktil) Mk]^tau rtil^etil < t^(-kappa)
    log_rtil = (-kappa * math.log(t)
                - math.lgamma(tau + 1)
                - tau * math.log(D_table(1, ktil) * Mk)) / etil
    rtil = math.exp(log_rtil) * (1 - 1e-12)
    ball_count = max(1, math.ceil((hi - lo) / rtil)) if rtil > 0 else None
    if ball_count is None or ball_count > 10 ** 9:
        why = (f"ball radius e^{log_rtil:.1f}" if math.isfinite(log_rtil)
               else f"the order-{ktil} derivative bound M_k is not finite")
        raise PreconditionFailed(f"ball count above 10^9 on an interval of "
                                 f"length {hi - lo}: {why}")

    points = enumerate_points(f, interval, t)
    balls = {}
    for (x, y) in points:
        idx = min(int((float(x) - lo) / rtil), ball_count - 1)
        balls.setdefault(idx, []).append((x, y))
    per_ball = {}
    for idx, pts in sorted(balls.items()):
        ok = on_hypersurface(pts, d, 2)
        per_ball[idx] = {"points": len(pts), "pass": ok}
        if not ok:
            raise CoverTestFailed(
                f"ball {idx} holds {len(pts)} points not on one degree-{d} curve")
    eps_exp = comb.epsilon_exponent("as_printed")
    return {"rtil": rtil, "ball_count": ball_count,
            "occupied_balls": len(balls), "points": len(points),
            "per_ball": per_ball,
            "hypersurface_count": len(balls),
            "bound_exponent": float(eps_exp),
            "epsilon_printed": eps_exp,
            "epsilon_truncated": comb.epsilon_exponent("truncated_at_k"),
            "tau": tau, "k": ktil, "e": etil, "kappa": kappa, "Mk": Mk}
