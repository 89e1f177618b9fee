"""Chart records and certificate checkers.

A chart is a polynomial (or composed) substitution from the unit interval
(or square, for slabs) into the domain, with the function it carries.  Both
checkers measure derivative suprema through one grid routine, exactly in
rationals when the carried functions are (for a slab, both graphs) and in
floats otherwise, and certify the unit bound up to a stated tolerance; a
non-finite measurement fails the certificate, and a pole at a grid point
reads inf in either mode.  The exact grid max is decided in integers at the
grid ends and beside the critical points and poles that Descartes' rule
locates, so it equals the exact scan of every grid point; either mode is a
grid sample, not a proof over the interval, and the report's `detail` names
the grid it sampled."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import DEFAULT, Config
from .errors import EvaluationAtSingularity
from .funcs import (AddExpr, ConstExpr, FunctionExpr, MulExpr, RationalExpr,
                    simplify)
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
        with np.errstate(all="ignore"):     # a non-finite value is returned
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


def _report(values: dict, mode: str, cfg: Config) -> CertificateReport:
    """Certificate over values keyed by order: ok iff all are finite and the
    largest is at most 1 + the mode's tolerance.  `detail` names the order of
    a non-finite value, which fails the report, or else the grid sampled."""
    if mode == "exact":
        tol, n = CK_TOLERANCE_EXACT, cfg.exact_grid_points
        detail = f"exact at the {n + 1} points i/{n}"
    else:
        tol = CK_TOLERANCE_FLOAT
        detail = f"float at {cfg.grid_points} points, tolerance {tol}"
    bad = [key for key, v in values.items() if not math.isfinite(v)]
    worst = values[bad[0]] if bad else max([0.0, *values.values()])
    return CertificateReport(
        ok=not bad and worst <= 1.0 + tol, max_bound=worst,
        per_order=values, mode=mode, tolerance=tol,
        detail=f"non-finite value at order {bad[0]}" if bad else detail)


def _grid_max(key, fn, orders, shift, mode: str, cfg: Config) -> dict:
    """{(key, i): max |fn^(i)|} over the chart's grid, i in orders, less
    `shift` at order 0; fn is a Poly or a FunctionExpr, rational in exact
    mode, which takes the rational max at the cfg.exact_grid_points + 1
    points i/N; float mode takes the float max at cfg.grid_points points.
    A pole on the grid reads inf in either mode."""
    top = max(orders, default=0)
    if isinstance(fn, Poly):
        chain = fn.derivs(top)
    elif mode == "exact":
        chain = RationalExpr(*fn.as_rational()).derivative_chain(top)
    else:
        chain = fn.derivative_chain(top)
    xs = np.linspace(0.0, 1.0, cfg.grid_points) if mode == "float" else None
    out, n = {}, cfg.exact_grid_points
    for i in orders:
        g, c = chain[i], (shift if i == 0 else 0)
        if mode == "float":
            with np.errstate(all="ignore"):     # a NaN sup fails closed
                vals = g.eval_array(xs) - float(c) if c else g.eval_array(xs)
            out[key, i] = sampled_sup(vals)
        elif isinstance(g, Poly):
            out[key, i] = float(max_abs_on_rational_grid(g - c if c else g, n))
        else:
            num, den = g.as_rational()
            out[key, i] = float(max_abs_ratio_on_grid(
                num - den * c if c else num, den, n, pole=math.inf))
    return out


def measure_chart_bounds(chart: Chart, cfg: Config = DEFAULT):
    """Grid maxima (`_grid_max`) of |psi - psi(0)|, |psi^(i)| and
    |(f o psi)^(i)|, i = 1..k, and the mode: exact iff f o psi is rational."""
    mode = "exact" if chart.f_comp.as_rational() is not None else "float"
    k, psi0 = chart.k, chart.psi(Fraction(0))
    chart.bounds = {
        **_grid_max("psi", chart.psi, range(k + 1), psi0, mode, cfg),
        **_grid_max("f", chart.f_comp, range(1, k + 1), 0, mode, cfg)}
    return chart.bounds, mode


def verify_ck_chart(chart: Chart, cfg: Config = DEFAULT) -> CertificateReport:
    """Certify the unit-norm condition: the chart map stays within distance 1
    of its basepoint in C^k, and the carried function does too (orders >= 1)."""
    return _report(*measure_chart_bounds(chart, cfg), cfg)


def verify_slab_chart(slab: SlabChart, cfg: Config = DEFAULT) -> CertificateReport:
    """The second component is affine in t2, so all mixed partials reduce to
    t1-derivatives of G1 and G2 - G1 (the "y-slope"); check those plus the
    x-map by `_grid_max`, exact when G1 and G2 are rational."""
    mode = ("float" if None in (slab.G1.as_rational(), slab.G2.as_rational())
            else "exact")
    orders = range(slab.k + 1)
    try:                # the basepoint y
        y0 = slab.G1.eval(Fraction(0))
    except EvaluationAtSingularity:
        y0 = None       # a pole or a non-finite value: ('y', 0) reads inf
    gap = simplify(AddExpr(slab.G2, MulExpr(ConstExpr(-1), slab.G1)))
    per = _grid_max("x", slab.x_map, orders, slab.x_map(0), mode, cfg)
    g2 = _grid_max("y", slab.G2, orders, y0 or 0, mode, cfg)
    # psi2 at t2 in {0, 1}; np.maximum keeps a NaN
    per.update((key, float(np.maximum(v, g2[key]))) for key, v in
               _grid_max("y", slab.G1, orders, y0 or 0, mode, cfg).items())
    per.update(_grid_max("y-slope", gap, orders[:-1], 0, mode, cfg))
    if y0 is None:
        per["y", 0] = math.inf
    slab.bounds = per
    return _report(per, mode, cfg)
