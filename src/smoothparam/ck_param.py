"""C^k parametrization by derivative killing.

One induction engine, `_induct`, carries a tuple of functions on a shared
chart map.  It subdivides at the zeros of the first k+1 derivatives of each,
then walks levels l = 2..k: pieces are re-cut at the zeros of the l-th
derivatives, and where one exceeds 1 the piece is precomposed with the square
map, oriented so t = 0 maps to the endpoint of the largest l-th derivative
(the monotone 1/x-type decay there is what the square flattens).  An equal
split then brings all bounds under 1; every chart is certified.

`ck_parametrize_function` runs it on one function, after an optional
value-axis normalization; `ck_parametrize_slab` checks g1 < g2 inside (the
ends may touch) and runs it on the pair.  Either emits `Chart`s, a slab's
carrying its upper graph as `top`, each certified by `verify_ck_chart` at
orders 0..k: exact when the graphs are rational."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .charts import Chart, sampled_sup, verify_ck_chart
from .errors import (BoundViolationAfterMaxDepth, PreconditionFailed,
                     SlabOrderViolation)
from .funcs import (GRID_POINTS, AddExpr, FunctionExpr, MulExpr,
                    RationalExpr, _wrap, hyperbola_branch,
                    isolate_real_zeros, normalize_values, simplify)
from .poly import Poly, _fr


@dataclass
class CkParametrization:
    charts: list
    k: int
    domain: tuple
    normalization: dict = field(default_factory=dict)  # value-axis rescale
    meta: dict = field(default_factory=dict)

    @property
    def chart_count(self):
        return len(self.charts)


def _zero_cuts(gs, orders, lo, hi) -> list:
    """Sorted midpoints in (lo, hi) of the isolating intervals of the real
    zeros of g^(o), g in gs, o in orders; an identically zero g^(o) makes
    no cut."""
    cuts = set()
    for g in gs:
        chain = g.derivative_chain(max(orders, default=0))
        for o in orders:
            rat = chain[o].as_rational()
            if rat is not None and rat[0].is_zero():
                continue
            for a, b in isolate_real_zeros(chain[o], (lo, hi)):
                mid = (_fr(a) + _fr(b)) / 2
                if lo < mid < hi:
                    cuts.add(mid)
    return sorted(cuts)


def monotone_subdivision(f: FunctionExpr, k: int, interval):
    """Split the interval at every zero of f', ..., f^(k+1); on each returned
    subinterval all those derivatives have constant sign."""
    lo, hi = _fr(interval[0]), _fr(interval[1])
    pts = [lo] + _zero_cuts([f], range(1, k + 2), lo, hi) + [hi]
    return list(zip(pts, pts[1:]))


def _affine_01(a, b) -> Poly:
    """t in [0,1] -> a + (b-a) t."""
    a, b = _fr(a), _fr(b)
    return Poly.affine(b - a, a)


_SQUARE = Poly([0, 0, 1])            # t -> t^2
_SQUARE_FLIP = Poly([1, 0, -1])      # t -> 1 - t^2
_NEAR_END = Fraction(1, 10**9)


def _square_for(derivs) -> Poly:
    """The square map sending t = 0 to the end of [0, 1] where the largest
    |derivative| (over the given functions) sits, sampled just inside it."""
    v0 = max(abs(float(d.eval(_NEAR_END))) for d in derivs)
    v1 = max(abs(float(d.eval(1 - _NEAR_END))) for d in derivs)
    return _SQUARE if v0 >= v1 else _SQUARE_FLIP


def kill_derivative_step(g: FunctionExpr, l: int, check_preconditions=True):
    """Square substitution flattening the l-th derivative of g on [0, 1].

    g must have sign-constant monotone l-th derivative; the substitution is
    oriented so t = 0 maps to the endpoint where |g^(l)| is largest.  Returns
    (q, g o q, measured bound on (g o q)^(l), no_op flag)."""
    chain = g.derivative_chain(l)
    rat = chain[l].as_rational()
    if rat is not None and rat[0].is_zero():
        return Poly([0, 1]), g, 0.0, True
    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    if check_preconditions:
        for i in range(1, l):
            if not math.isfinite(sampled_sup(chain[i], xs)):
                raise PreconditionFailed(f"order-{i} derivative unbounded")
        # sign-constancy of g^(l) on the open interval
        interior = isolate_real_zeros(chain[l], (Fraction(1, 10**6),
                                                 1 - Fraction(1, 10**6)))
        if interior:
            raise PreconditionFailed(
                f"g^({l}) changes sign inside the piece; subdivide first")
    q = _square_for([chain[l]])
    gq = g.precompose_poly(q)
    return q, gq, sampled_sup(gq, xs, l), False


def _split_factor(bounds) -> int:
    """Smallest n with C_i / n^i <= 1 for all i, i.e. ceil(max C_i^{1/i});
    PreconditionFailed, naming i, if a C_i is not finite."""
    need = 1.0
    for i, c in enumerate(bounds, start=1):
        if not math.isfinite(c):
            raise PreconditionFailed(
                f"order-{i} derivative unbounded on a piece (sampled sup {c})")
        if c > 1.0:
            need = max(need, c ** (1.0 / i))
    n = max(1, math.ceil(need - 1e-12))
    while any(c > n**i * (1 + 1e-12) for i, c in enumerate(bounds, start=1)):
        n += 1
    return n


MAX_EXTRA_SPLITS = 3        # doublings of a piece's split count if a chart fails


def _induct(fs, k: int, lo, hi):
    """The C^k induction on the graphs fs over [lo, hi]: (f,), or a slab's
    (g1, g2).  Each chart carries fs o psi as f_comp (and top), keeps in its
    meta the substitutions that made psi, the final split count and its
    certificate from `verify_ck_chart`.  Returns the accepted charts sorted
    by min(image)."""
    pts = [lo] + _zero_cuts(fs, range(1, k + 2), lo, hi) + [hi]
    work = []   # (psi on [0, 1], fs o psi, steps)
    for a, b in zip(pts, pts[1:]):
        psi = _affine_01(a, b)
        work.append((psi, tuple(f.precompose_poly(psi) for f in fs),
                     [("affine", a, b)]))

    xs = np.linspace(0.0, 1.0, GRID_POINTS)
    for l in range(2, k + 1):
        nxt = []
        for psi, gs, steps in work:
            # re-subdivide in t so every g^(l) is sign-constant per subpiece
            ts = ([Fraction(0)] + _zero_cuts(gs, [l], Fraction(0), Fraction(1))
                  + [Fraction(1)])
            for u, v in zip(ts, ts[1:]):
                aff = _affine_01(u, v)
                psi2 = psi.compose(aff)
                gs2 = tuple(g.precompose_poly(aff) for g in gs)
                steps2 = steps + ([("affine", u, v)] if (u, v) != (0, 1) else [])
                if max(sampled_sup(g, xs, l) for g in gs2) > 1.0:
                    q = _square_for([g.derivative_chain(l)[l] for g in gs2])
                    psi2 = psi2.compose(q)
                    gs2 = tuple(g.precompose_poly(q) for g in gs2)
                    steps2 = steps2 + [("square", q == _SQUARE_FLIP)]
                nxt.append((psi2, gs2, steps2))
        work = nxt

    charts = []
    for psi, gs, steps in work:
        # C_i = max(|psi^(i)|, |g^(i)| over gs) on [0, 1], i = 1..k
        chains = [g.derivative_chain(k) for g in gs]
        bounds = [max(sampled_sup(d, xs), *(sampled_sup(c[i], xs) for c in chains))
                  for i, d in enumerate(psi.derivs(k)[1:], start=1)]
        n = _split_factor(bounds)
        for extra in range(MAX_EXTRA_SPLITS + 1):
            m = n * (2 ** extra)
            subcharts = []
            for j in range(m):
                aff = _affine_01(Fraction(j, m), Fraction(j + 1, m))
                f_comp, *top = (g.precompose_poly(aff) for g in gs)
                ch = Chart(psi=psi.compose(aff), f_comp=f_comp, k=k,
                           top=top[0] if top else None,
                           meta={"steps": steps + [("affine", Fraction(j, m),
                                                    Fraction(j + 1, m))],
                                 "split": m})
                assert ch.psi.degree <= 2 ** k
                cert = verify_ck_chart(ch)
                ch.meta["certificate"] = cert
                if not cert.ok:
                    break
                subcharts.append(ch)
            if len(subcharts) == m:
                charts.extend(subcharts)
                break
        else:   # name what fails the last failed certificate
            over = [key for key, v in cert.per_order.items()
                    if not v <= 1 + cert.tolerance]
            raise BoundViolationAfterMaxDepth(
                f"chart bounds {bounds} not reducible within "
                f"{MAX_EXTRA_SPLITS} extra splits; the last failed "
                f"certificate has {', '.join(map(str, over))} over the "
                f"bound, the worst {cert.worst_order} = "
                f"{cert.max_bound:.6g}")
    charts.sort(key=lambda c: min(c.image))
    return charts


def _checked_k_interval(k: int, interval):
    """(lo, hi) as Fractions, after checking k >= 0 and lo < hi."""
    lo, hi = _fr(interval[0]), _fr(interval[1])
    if k < 0:
        raise PreconditionFailed(f"k must be >= 0, got {k}")
    if not lo < hi:
        raise PreconditionFailed(f"interval must have lo < hi, got [{lo}, {hi}]")
    return lo, hi


def ck_parametrize_function(f: FunctionExpr, k: int, interval,
                            normalize=True) -> CkParametrization:
    f = _wrap(f)
    lo, hi = _checked_k_interval(k, interval)
    norm = {}
    if normalize:
        f, norm = normalize_values(f, lo, hi)
    charts = _induct((f,), k, lo, hi)
    return CkParametrization(charts=charts, k=k, domain=(lo, hi),
                             normalization=norm)


def ck_parametrize_slab(g1: FunctionExpr, g2: FunctionExpr, k: int,
                        interval) -> CkParametrization:
    """2d slab {g1(x) <= y <= g2(x)}: run the induction jointly on g1 and g2
    over the common refinement of their subdivisions, then emit the affine-in-t2
    slab charts."""
    g1, g2 = _wrap(g1), _wrap(g2)
    lo, hi = _checked_k_interval(k, interval)
    diff = simplify(AddExpr(g2, MulExpr(-1, g1)))
    rat = diff.as_rational()
    if rat is not None and rat[0].is_zero():
        raise SlabOrderViolation("g1 == g2 identically")
    # an end reported as a zero [lo, lo] or [hi, hi] is where the graphs touch
    ends = (lo, hi) if rat is not None else (float(lo), float(hi))
    interior = [z for z in isolate_real_zeros(diff, (lo, hi))
                if z[0] != z[1] or z[0] not in ends]
    if interior:
        raise SlabOrderViolation(f"g2 - g1 vanishes inside the slab at {interior}")
    if float(diff.eval((lo + hi) / 2)) < 0:
        raise SlabOrderViolation("g1 > g2 on the slab")
    charts = _induct((g1, g2), k, lo, hi)
    return CkParametrization(charts=charts, k=k, domain=(lo, hi),
                             meta={"kind": "slab"})


def hyperbola_parametrization(eps, k: int = 2) -> CkParametrization:
    """C^k charts for both halves of the hyperbola xy = eps^2: g(x) = -eps^2/x
    on [-1, -eps] and its mirror image eps^2/x on [eps, 1]."""
    e = _fr(eps)
    if not 0 < e < 1:
        raise PreconditionFailed(f"eps must be in (0, 1), got {eps}")
    left = ck_parametrize_function(hyperbola_branch(e), k, (-1, -e),
                                   normalize=False)
    gr = RationalExpr(Poly([e * e]), Poly([0, 1]))   # +eps^2/x on [eps, 1]
    right = ck_parametrize_function(gr, k, (e, 1), normalize=False)
    return CkParametrization(charts=left.charts + right.charts, k=k,
                             domain=(-1, 1),
                             meta={"family": "hyperbola", "eps": e})
