"""Chart records and certificate checkers.

A chart is a polynomial (or composed) substitution from the unit interval
(or square, for slabs) into the domain, with the function it carries.  The
checkers measure derivative suprema on dense grids, exactly in rationals
when the data allows and in floats otherwise, and certify the unit bound up
to a stated tolerance; a non-finite measurement fails the certificate.  The
exact grid max is decided in integers at the grid ends and beside the
critical points and poles that Descartes' rule locates, so it equals the
exact scan of every grid point; either mode is a grid sample, not a proof
over the interval, and the report's `detail` names the grid it sampled."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import DEFAULT, Config
from .errors import EvaluationAtSingularity
from .funcs import FunctionExpr, RationalExpr
from .poly import Poly, max_abs_on_rational_grid, max_abs_ratio_on_grid

CK_TOLERANCE_EXACT = 1e-9            # relative slack on an exact-grid max
CK_TOLERANCE_FLOAT = 1e-6            # relative slack on a float sample


@dataclass
class CertificateReport:
    ok: bool
    max_bound: float                 # largest measured supremum
    per_order: dict = field(default_factory=dict)
    mode: str = "float"
    tolerance: float = 0.0
    detail: str = ""

    def __bool__(self):
        return self.ok


@dataclass
class Chart:
    """One chart of a parametrization: psi maps [0, 1] onto a subinterval of
    the original domain, f_comp = f o psi."""

    psi: Poly
    f_comp: FunctionExpr
    k: int
    image: tuple = None              # (psi(0), psi(1)), exact when possible
    bounds: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.image is None:
            self.image = (self.psi(Fraction(0)), self.psi(Fraction(1)))

    @property
    def degree(self):
        return self.psi.degree


@dataclass
class SlabChart:
    """Chart of a 2d slab {a <= x <= b, g1(x) <= y <= g2(x)}:
    psi(t1, t2) = (x(t1), (1 - t2) G1(t1) + t2 G2(t1)) with Gi = gi o x."""

    x_map: Poly                      # t1 -> x
    G1: FunctionExpr
    G2: FunctionExpr
    k: int
    bounds: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def eval(self, t1, t2):
        x = self.x_map(t1)
        g1, g2 = self.G1.eval(t1), self.G2.eval(t1)
        return (x, (1 - t2) * g1 + t2 * g2)


def sampled_sup(fn, xs=None, order: int = 0) -> float:
    """max |fn^(order)| over the sample points xs, for fn a Poly or a
    FunctionExpr; an array is taken as values already sampled (order 0).
    A NaN or inf sample is returned, never dropped: the certificate report
    turns it into a failure."""
    if not isinstance(fn, np.ndarray):
        if order:
            fn = (fn.derivs(order)[-1] if isinstance(fn, Poly)
                  else fn.derivative_chain(order)[order])
        fn = fn.eval_array(xs)
    return float(np.max(np.abs(fn)))


@functools.lru_cache(maxsize=8)
def _unit_circle(n: int) -> np.ndarray:
    """cos t + i sin t at t = 2 pi j / n, j < n; cached per n, read-only."""
    angles = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
    unit = np.array([complex(math.cos(t), math.sin(t)) for t in angles])
    unit.flags.writeable = False
    return unit


def circle_sup(values, center: complex, radius: float,
               cfg: Config = DEFAULT) -> float:
    """max |v| over the concentric-circle sample: cfg.a_chart_radii circles
    about `center` with radii r_j = radius * j / cfg.a_chart_radii, each with
    cfg.a_chart_angles points.  values(zs) takes the complex array zs of
    shape (radii, angles) in one call, row j the circle of radius r_j
    starting at angle 0 (zs[j, 0] == center + r_j), and returns an array of
    the same shape.  A branch's eval_array walks each row as one path from
    its seed, entering the circle at its real point center + r_j.  A
    non-finite value raises EvaluationAtSingularity naming the first radius
    where it occurs, so it can never shrink the bound."""
    unit = _unit_circle(cfg.a_chart_angles)
    radii = [radius * j / cfg.a_chart_radii
             for j in range(1, cfg.a_chart_radii + 1)]
    zs = center + np.array(radii)[:, None] * unit
    with np.errstate(all="ignore"):     # a non-finite value raises below
        mags = np.abs(np.asarray(values(zs)))
    finite = np.isfinite(mags).all(axis=1)
    if not finite.all():
        r = radii[int(np.argmin(finite))]
        raise EvaluationAtSingularity(
            f"non-finite value on the circle of radius {r} about {center}")
    return float(mags.max())


def _report(values: dict, mode: str, tol: float,
            detail: str) -> CertificateReport:
    """Certificate over measured values keyed by order: ok iff every value is
    finite and the largest is at most 1 + tol.  A non-finite value fails the
    report, and `detail` names its order."""
    bad = [key for key, v in values.items() if not math.isfinite(v)]
    worst = values[bad[0]] if bad else max([0.0, *values.values()])
    return CertificateReport(
        ok=not bad and worst <= 1.0 + tol, max_bound=worst,
        per_order=values, mode=mode, tolerance=tol,
        detail=f"non-finite value at order {bad[0]}" if bad else detail)


def measure_chart_bounds(chart: Chart, cfg: Config = DEFAULT):
    """Per-order suprema of |psi - psi(0)|, |psi^(i)| and |(f o psi)^(i)|,
    i = 1..k, sampled on a dense grid.  The mode follows the chart: exact
    when f o psi is rational, float otherwise.  Exact mode takes the
    rational max at the cfg.exact_grid_points + 1 points i/N, in integers at
    the grid ends and beside the critical points and poles (the same value
    as an exact scan of every point); float mode the float max at
    cfg.grid_points points.  Both are grid samples, not bounds over
    [0, 1]."""
    k = chart.k
    rat = chart.f_comp.as_rational()
    per = {}
    if rat is not None:
        n = cfg.exact_grid_points
        base = chart.psi - Poly.const(chart.psi(Fraction(0)))
        per[("psi", 0)] = float(max_abs_on_rational_grid(base, n))
        for i, d in enumerate(chart.psi.derivs(k)[1:], start=1):
            per[("psi", i)] = float(max_abs_on_rational_grid(d, n))
        fexpr = RationalExpr(rat[0], rat[1])
        chain = fexpr.derivative_chain(k)
        for i in range(1, k + 1):
            num, den = chain[i].as_rational()
            per[("f", i)] = float(max_abs_ratio_on_grid(num, den, n))
        mode = "exact"
    else:
        xs = np.linspace(0.0, 1.0, cfg.grid_points)
        per[("psi", 0)] = sampled_sup(chart.psi.eval_array(xs)
                                      - float(chart.psi(0.0)))
        for i, d in enumerate(chart.psi.derivs(k)[1:], start=1):
            per[("psi", i)] = sampled_sup(d, xs)
        chain = chart.f_comp.derivative_chain(k)
        for i in range(1, k + 1):
            per[("f", i)] = sampled_sup(chain[i], xs)
        mode = "float"
    chart.bounds = per
    return per, mode


def verify_ck_chart(chart: Chart, cfg: Config = DEFAULT) -> CertificateReport:
    """Certify the unit-norm condition: the chart map stays within distance 1
    of its basepoint in C^k, and the carried function does too (orders >= 1)."""
    per, mode = measure_chart_bounds(chart, cfg)
    if mode == "exact":
        tol, n = CK_TOLERANCE_EXACT, cfg.exact_grid_points
        detail = f"exact at the {n + 1} points i/{n}"
    else:
        tol = CK_TOLERANCE_FLOAT
        detail = f"float at {cfg.grid_points} points, tolerance {tol}"
    return _report(per, mode, tol, detail=detail)


def verify_slab_chart(slab: SlabChart, cfg: Config = DEFAULT) -> CertificateReport:
    """The second component is affine in t2, so all mixed partials reduce to
    t1-derivatives of G1 and G2 - G1; check those plus the x-map."""
    k = slab.k
    xs = np.linspace(0.0, 1.0, cfg.grid_points_2d ** 2 // 4 + 2)
    per = {("x", 0): sampled_sup(slab.x_map.eval_array(xs)
                                 - float(slab.x_map(0.0)))}
    for i, d in enumerate(slab.x_map.derivs(k)[1:], start=1):
        per[("x", i)] = sampled_sup(d, xs)
    c1 = slab.G1.derivative_chain(k)
    c2 = slab.G2.derivative_chain(k)
    g1v = [g.eval_array(xs) for g in c1]
    g2v = [g.eval_array(xs) for g in c2]
    per[("y", 0)] = sampled_sup(np.stack((g1v[0], g2v[0])) - g1v[0][0])
    for i in range(1, k + 1):
        # d^i/dt1^i of psi2 at t2 in {0, 1}, and of the t2-slope G2 - G1
        per[("y", i)] = sampled_sup(np.stack((g1v[i], g2v[i])))
        per[("y-slope", i - 1)] = sampled_sup(g2v[i - 1] - g1v[i - 1])
    slab.bounds = per
    tol = CK_TOLERANCE_FLOAT
    return _report(per, "float", tol,
                   detail=f"float at {len(xs)} points, tolerance {tol}")
