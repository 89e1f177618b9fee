"""Parametric polynomial approximation with complexity accounting.

Two routes: the C^k route (order k = floor(n/sigma) + 1 parametrization,
degree k-1 Taylor patches on subcubes of adaptively chosen side) and the
analytic route (delta-parametrization with delta = eps, degree
floor(log2(1/eps)) + 1 truncations per analytic chart, one degree-0 box per
removed strip).  Complexity of a patch family is the exact integer
sum of d^(n_j) over patches."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analytic_param import analytic_delta_parametrize
from .charts import sampled_sup
from .ck_param import ck_parametrize_function
from .errors import (DegreeOverflow, EvaluationAtSingularity,
                     PreconditionFailed, SmoothParamError)
from .funcs import FunctionExpr, _wrap
from .poly import Poly, _fr

TAYLOR_DEGREE_CAP = 64               # highest Taylor degree of a patch
CK_PATCH_CAP = 1024                  # most patches on one C^k chart
PATCH_SAMPLES = 1024                 # patch error samples (verify: finer)


def _check_positive(name, v):
    if not (math.isfinite(float(v)) and v > 0):
        raise PreconditionFailed(f"{name} must be finite and > 0, got {v}")


@dataclass
class ApproxPatch:
    dim: int                      # n_j
    degree: int
    coeffs: list                  # per output coordinate: Poly (in t1) or const
    center: tuple
    side: float
    source: str = ""
    sup_error: float = 0.0
    bound: float = 0.0

    @property
    def complexity(self) -> int:
        return self.degree ** self.dim


@dataclass
class Approximation:
    patches: list
    epsilon: float
    route: str
    meta: dict = field(default_factory=dict)

    @property
    def complexity(self) -> int:
        return sum(p.complexity for p in self.patches)


def taylor_polynomial(g: FunctionExpr, d: int, center) -> Poly:
    """Degree-d Taylor polynomial of g at `center`: exact for rational g at a
    rational center, else from `eval` of each derivative at the center."""
    if d > TAYLOR_DEGREE_CAP:
        raise DegreeOverflow(f"degree {d} exceeds cap {TAYLOR_DEGREE_CAP}")
    rat = g.as_rational()
    if rat is not None and isinstance(center, (int, Fraction)):
        return _rational_taylor(rat[0], rat[1], d, _fr(center))
    chain = g.derivative_chain(d)
    coeffs = []
    fact = 1
    for i, gi in enumerate(chain):
        if i > 0:
            fact *= i
        coeffs.append(Fraction(gi.eval(center)) / fact)
    # p(t) = sum coeffs[i] (t - center)^i
    return Poly(coeffs).compose(Poly.affine(1, -Fraction(center)))


def _rational_taylor(num: Poly, den: Poly, d: int, c: Fraction) -> Poly:
    """Exact degree-d Taylor polynomial of num/den at c by power-series
    division over Z.  With num(t + c) = A(t)/m and den(t + c) = B(t)/n the
    series coefficients are n Q_j / (m b^(j+1)), b = B_0, where
    Q_j = A_j b^j - sum_{i<j} Q_i B_(j-i) b^(j-1-i) are integers; they are
    put over the one denominator m b^(d+1)."""
    shift = Poly.affine(1, c)            # t -> t + c
    ns, ds = num.compose(shift), den.compose(shift)
    A, B = ns._a, ds._a
    if not B or B[0] == 0:
        raise EvaluationAtSingularity(f"pole at expansion center {c}")
    b = B[0]
    pw = [1]
    for _ in range(d + 1):
        pw.append(pw[-1] * b)
    Q = []
    for j in range(d + 1):
        acc = A[j] * pw[j] if j < len(A) else 0
        for i in range(max(0, j + 1 - len(B)), j):
            acc -= Q[i] * B[j - i] * pw[j - 1 - i]
        Q.append(acc)
    p = Poly([ds._d * x * pw[d - j] for j, x in enumerate(Q)],
             _d=ns._d * pw[d + 1])
    return p.compose(Poly.affine(1, -c))


def taylor_patch(g: FunctionExpr, d: int, center, halfwidth, route: str,
                 K: float = None):
    """(polynomial, remainder bound) for g on [center-halfwidth, center+halfwidth].

    C^k route: measured (d+1)-derivative max times halfwidth^(d+1)/(d+1)!.
    Analytic route: K * 2^(-d) geometric tail from the certified disk bound."""
    p = taylor_polynomial(g, d, center)
    if route == "analytic":
        if K is None:
            raise ValueError("analytic remainder needs the disk bound K")
        bound = K * 2.0 ** (-d)
    else:
        lo, hi = float(center) - float(halfwidth), float(center) + float(halfwidth)
        m = sampled_sup(g, np.linspace(lo, hi, PATCH_SAMPLES), d + 1)
        bound = m * float(halfwidth) ** (d + 1) / math.factorial(d + 1)
    return p, bound


def patch_error(g: FunctionExpr, p: Poly, route: str, center, side,
                samples: int, psi: Poly = None) -> float:
    """Sampled sup |g(psi(t)) - p(t)| over the patch's own parameter
    interval: the chart's [-1, 1] on the analytic route, and the subcube
    [center - side/2, center + side/2] of the chart's [0, 1] on the C^k
    route.  Without psi, g is the chart composition itself."""
    lo, hi = ((-1, 1) if route == "analytic"
              else (center - side / 2, center + side / 2))
    ts = np.linspace(float(lo), float(hi), samples)
    xs = ts if psi is None else psi.eval_array(ts)
    return float(np.max(np.abs(g.eval_array(xs) - p.eval_array(ts))))


def ck_approximate(f: FunctionExpr, interval, eps: float,
                   sigma: float) -> Approximation:
    """Graph-of-function route over an interval (n = 1).  The charts carry
    the value-normalized g = a*f + b (`funcs.normalize_values`), so their
    count does not grow with the sup norm of f.  Each patch p is fitted to g
    at budget a*eps and stored as (p - b)/a, exactly: the approximation of
    f itself that the artifact's verify resamples against the source.  A
    chart that needs more than CK_PATCH_CAP patches raises DegreeOverflow."""
    _check_positive("eps", eps)
    _check_positive("sigma", sigma)
    f = _wrap(f)
    n = 1
    k = int(n / sigma) + 1
    d = max(1, k - 1)
    param = ck_parametrize_function(f, k, interval)
    a = param.normalization.get("scale", Fraction(1))
    b = param.normalization.get("shift", Fraction(0))
    patches = []
    for idx, ch in enumerate(param.charts):
        r = eps ** (1.0 / k)
        while True:
            m = max(1, math.ceil(1.0 / r))
            if m > CK_PATCH_CAP:       # each halving doubles the refits
                raise DegreeOverflow(f"chart {idx} needs more than "
                                     f"CK_PATCH_CAP = {CK_PATCH_CAP} patches")
            ok = True
            cand = []
            for j in range(m):
                u, v = Fraction(j, m), Fraction(j + 1, m)
                c = (u + v) / 2
                half = (v - u) / 2
                p, bound = taylor_patch(ch.f_comp, d, c, half, "ck")
                err = patch_error(ch.f_comp, p, "ck", c, 2 * half,
                                  PATCH_SAMPLES) / float(a)
                if not math.isfinite(err):   # halving may resample the point
                    raise EvaluationAtSingularity(
                        f"non-finite patch error on chart {idx} at t={c}")
                if err > eps:
                    ok = False
                    break
                cand.append(ApproxPatch(dim=1, degree=d,
                                        coeffs=[ch.psi, (p - b) * (1 / a)],
                                        center=(float(c),), side=float(2 * half),
                                        source=f"chart{idx}", sup_error=err,
                                        bound=bound / float(a)))
            if ok:
                patches.extend(cand)
                break
            r /= 2
    return Approximation(patches=patches, epsilon=eps, route="ck",
                         meta={"k": k, "d": d, "charts": param.chart_count})


def analytic_approximate(f: FunctionExpr, interval, eps: float,
                         declared_singularities=None,
                         slab: bool = False) -> Approximation:
    """Analytic route with delta = eps.  With slab=True the patches are 2d:
    phi(t1, t2) = (psi(t1), t2 p(t1)) over the slab 0 <= y <= f(x), with p
    the truncation of f; each removed strip is covered by size-eps boxes of
    degree 0."""
    _check_positive("eps", eps)
    delta = _fr(eps).limit_denominator(2**40)
    if not delta:
        raise PreconditionFailed(
            f"eps must exceed 2^-41 on the analytic route, got {eps}")
    f = _wrap(f)
    d0 = int(math.floor(math.log2(1.0 / eps))) + 1
    param = analytic_delta_parametrize(f, delta, interval,
                                       declared_singularities=declared_singularities,
                                       normalize=False)
    patches = []
    for idx, ch in enumerate(param.charts):
        K = ch.meta["K"]
        d = d0
        while True:
            p, bound = taylor_patch(ch.f_comp, d, Fraction(0), 1, "analytic",
                                    K=max(K, 1e-300))
            err = patch_error(ch.f_comp, p, "analytic", 0, 2, PATCH_SAMPLES)
            if err <= eps:
                break
            d += 2
            if d > TAYLOR_DEGREE_CAP:
                raise DegreeOverflow(
                    f"analytic patch on {ch.image} needs degree > cap")
        a, b = ch.image
        c = (float(a) + float(b)) / 2
        patches.append(ApproxPatch(dim=2 if slab else 1, degree=d,
                                   coeffs=[ch.psi, p],
                                   center=(c, 0.5) if slab else (c,),
                                   side=float(abs(float(b) - float(a))),
                                   source=f"a-chart{idx}", sup_error=err,
                                   bound=bound))
    # removed strips: degree-0 boxes of size eps
    for (a, b) in param.removed:
        w = float(b - a)
        xs = np.linspace(float(a), float(b), 64)
        try:
            with np.errstate(all="ignore"):     # inf or NaN: h = 1 below
                h = float(np.max(np.abs(f.eval_array(xs))))
        except (SmoothParamError, ArithmeticError, ValueError):
            h = 1.0
        if not math.isfinite(h):
            h = 1.0
        h = min(h, 1.0)
        nx = max(1, math.ceil(w / eps))
        ny = max(1, math.ceil(h / eps)) if slab else 1
        for i in range(nx):
            for j in range(ny):
                cx = float(a) + (i + 0.5) * w / nx
                cy = (j + 0.5) * h / ny if slab else float(f.eval(cx)) if h else 0.0
                patches.append(ApproxPatch(dim=2 if slab else 1, degree=1,
                                           coeffs=[Poly.const(Fraction(cx).limit_denominator(2**40)),
                                                   Poly.const(Fraction(cy).limit_denominator(2**40))],
                                           center=(cx, cy) if slab else (cx,),
                                           side=w / nx, source="removed-box",
                                           sup_error=min(w / nx, eps),
                                           bound=eps))
    return Approximation(patches=patches, epsilon=eps, route="analytic",
                         meta={"d0": d0, "delta": eps,
                               "charts": param.chart_count,
                               "removed": len(param.removed), "slab": slab})


# -- model comparison helpers --------------------------------------------------

def aic_of_fit(ys, preds, n_params: int) -> float:
    ys, preds = np.asarray(ys, float), np.asarray(preds, float)
    n = len(ys)
    rss = float(np.sum((ys - preds) ** 2))
    rss = max(rss, 1e-300)
    return n * math.log(rss / n) + 2 * n_params


def compare_log_cubic_vs_power(eps_list, complexities, sigmas):
    """AIC of c*(log2 1/eps)^3 against c*(1/eps)^sigma for each sigma.

    Both models have a single scale parameter fit by least squares."""
    eps = np.asarray(eps_list, float)
    ys = np.asarray(complexities, float)
    L = np.log2(1.0 / eps)
    basis = L ** 3
    c_cubic = float(np.dot(basis, ys) / np.dot(basis, basis))
    aic_cubic = aic_of_fit(ys, c_cubic * basis, 1)
    out = {"cubic": {"c": c_cubic, "aic": aic_cubic}}
    for s in sigmas:
        b = (1.0 / eps) ** s
        c = float(np.dot(b, ys) / np.dot(b, b))
        out[f"power_{s}"] = {"c": c, "aic": aic_of_fit(ys, c * b, 1)}
    return out
