"""The chart record and its certificate checker.

A chart is a polynomial map psi from the unit interval into the domain,
with the functions it carries: f_comp = f o psi for a graph, and for a slab
{g1 <= y <= g2} also top = g2 o psi, the map (t1, t2) -> (psi(t1),
(1 - t2) f_comp(t1) + t2 top(t1)) being affine in t2.  One checker measures
every coordinate at orders 0..k, order 0 less its basepoint, through one grid
routine, exactly in rationals when every carried function is rational and
in floats otherwise, and certifies the unit bound up to a stated tolerance;
a non-finite measurement fails the certificate, and a pole at a grid point
reads inf in either mode (in exact mode, so does a pole between grid
points).  The exact grid max is decided in integers at the grid ends and
beside the critical points that Descartes' rule locates, so it equals the
exact scan of every grid point.  A rational function's orders all come from
one integer derivative chain (`poly.ratio_chain_maxima`): one pole test
serves every order >= 1, since f^(i) = N_i/(d h^i) has the poles of d, and
the critical cells of f^(i) are the root cells of the next order's
numerator N_(i+1).  Either mode is a grid sample, not a proof over the
interval, and the report's `detail` names the grid it sampled.  The grids
are fixed: `funcs.GRID_POINTS` floats, EXACT_GRID_POINTS + 1 rationals and
CIRCLE_RADII circles of CIRCLE_ANGLES points; `verify` re-measures with
all but the circle count `serialize.VERIFY_FACTOR` times finer (`factor`)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import EvaluationAtSingularity
from .funcs import (GRID_POINTS, AddExpr, FunctionExpr, MulExpr, _wrap,
                    simplify)
from .poly import Poly, ratio_chain_maxima

CK_TOLERANCE_EXACT = 1e-9            # relative slack on an exact-grid max
CK_TOLERANCE_FLOAT = 1e-6            # relative slack on a float sample
EXACT_GRID_POINTS = 4096             # N of the exact grid i/N, i = 0..N
CIRCLE_RADII = 8                     # concentric circles sampled per disk
CIRCLE_ANGLES = 256                  # points per circle


@dataclass
class CertificateReport:
    ok: bool
    max_bound: float                 # largest measured supremum
    per_order: dict = field(default_factory=dict)
    mode: str = "float"
    tolerance: float = 0.0
    detail: str = ""
    worst_order: tuple = None        # key of max_bound, None if no orders

    def __bool__(self):
        return self.ok


@dataclass
class Chart:
    """One chart of a parametrization: psi maps [0, 1] onto a subinterval of
    the original domain, f_comp = f o psi, and for a slab chart top = g2 o psi
    is the upper graph over it (f_comp the lower)."""

    psi: Poly
    f_comp: FunctionExpr
    k: int
    image: tuple = None              # (psi(0), psi(1)), exact when possible
    bounds: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    top: FunctionExpr = None

    def __post_init__(self):
        if self.image is None:
            self.image = (self.psi(Fraction(0)), self.psi(Fraction(1)))


def sampled_sup(fn, xs=None, order: int = 0) -> float:
    """max |fn^(order)| over the sample points xs, for fn a FunctionExpr or
    a Poly (order 0 only); an array is taken as values already sampled
    (order 0).  A NaN or inf sample is returned, never dropped: the
    certificate report turns it into a failure."""
    if not isinstance(fn, np.ndarray):
        if order:
            fn = fn.derivative_chain(order)[order]
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
               factor: int = 1) -> float:
    """max |v| over the concentric-circle sample: CIRCLE_RADII circles
    about `center` with radii r_j = radius * j / CIRCLE_RADII, each with
    factor * CIRCLE_ANGLES points.  values(zs) takes the complex array zs of
    shape (radii, angles) in one call, row j the circle of radius r_j
    starting at angle 0 (zs[j, 0] == center + r_j), and returns an array of
    the same shape.  A branch's eval_array walks each row as one path from
    its seed, entering the circle at its real point center + r_j.  A
    non-finite value raises EvaluationAtSingularity naming the first radius
    where it occurs, so it can never shrink the bound."""
    unit = _unit_circle(factor * CIRCLE_ANGLES)
    radii = [radius * j / CIRCLE_RADII for j in range(1, CIRCLE_RADII + 1)]
    zs = center + np.array(radii)[:, None] * unit
    with np.errstate(all="ignore"):     # a non-finite value raises below
        mags = np.abs(np.asarray(values(zs)))
    finite = np.isfinite(mags).all(axis=1)
    if not finite.all():
        r = radii[int(np.argmin(finite))]
        raise EvaluationAtSingularity(
            f"non-finite value on the circle of radius {r} about {center}")
    return float(mags.max())


def _report(values: dict, mode: str, factor: int = 1) -> CertificateReport:
    """Certificate over values keyed by order: ok iff all are finite and the
    largest is at most 1 + the mode's tolerance.  The worst order is the
    first with a non-finite value, which fails the report, or else the
    first with the largest; `detail` names the former or the grid sampled."""
    if mode == "exact":
        tol, n = CK_TOLERANCE_EXACT, factor * EXACT_GRID_POINTS
        detail = f"exact at the {n + 1} points i/{n}"
    else:
        tol = CK_TOLERANCE_FLOAT
        detail = f"float at {factor * GRID_POINTS} points, tolerance {tol}"
    bad = [key for key, v in values.items() if not math.isfinite(v)]
    key = bad[0] if bad else max(values, key=values.get, default=None)
    worst = 0.0 if key is None else values[key]
    return CertificateReport(
        ok=not bad and worst <= 1.0 + tol, max_bound=worst,
        per_order=values, mode=mode, tolerance=tol, worst_order=key,
        detail=f"non-finite value at order {key}" if bad else detail)


def _grid_max(key, fn, orders, shift, mode: str, factor: int = 1) -> dict:
    """{(key, i): max |fn^(i)|} over the chart's grid, i in orders, less
    `shift` at order 0; fn is a FunctionExpr or a Poly (`funcs._wrap` reads
    it as the rational function fn/1), rational in exact mode, which takes
    the rational max at the N + 1 points i/N, N = factor * EXACT_GRID_POINTS;
    float mode the float max at factor * GRID_POINTS points.
    A pole on the grid reads inf in either mode, and in exact mode so does a
    pole between grid points.  Exact mode takes all the orders from one
    call of `ratio_chain_maxima`: one integer derivative chain, one pole
    test for the orders >= 1, and the critical cells of each order from the
    next order's numerator."""
    fn = _wrap(fn)
    if mode == "exact":
        return {(key, i): float(v) for i, v in ratio_chain_maxima(
            *fn.as_rational(), orders, shift,
            factor * EXACT_GRID_POINTS).items()}
    chain = fn.derivative_chain(max(orders, default=0))
    xs = np.linspace(0.0, 1.0, factor * GRID_POINTS)
    out = {}
    for i in orders:
        g, c = chain[i], (shift if i == 0 else 0)
        with np.errstate(all="ignore"):     # a NaN sup fails closed
            vals = g.eval_array(xs) - float(c) if c else g.eval_array(xs)
        out[key, i] = sampled_sup(vals)
    return out


def measure_chart_bounds(chart: Chart, factor: int = 1):
    """Grid maxima (`_grid_max`) of every coordinate at orders i = 0..k,
    order 0 less its basepoint: ('psi', i) of psi; ('f', i) the max over
    f_comp and top, less y0 = f_comp(0) at order 0 (inf where y0 fails to
    evaluate); and for a slab ('f-slope', i) of top - f_comp, i < k, since
    the map is affine in t2, so every mixed partial is one of these.
    Returns them with the mode: exact iff every carried function is
    rational.  `factor` makes both grids that many times finer."""
    fs = [f for f in (chart.f_comp, chart.top) if f is not None]
    mode = ("exact" if all(f.as_rational() is not None for f in fs)
            else "float")
    orders = range(chart.k + 1)
    try:                # the basepoint y
        y0 = chart.f_comp.eval(Fraction(0))
    except EvaluationAtSingularity:
        y0 = None       # a pole or a non-finite value: ('f', 0) reads inf
    per = _grid_max("psi", chart.psi, orders, chart.psi(Fraction(0)), mode,
                    factor)
    for f in fs:        # the map at t2 = 0 and 1; np.maximum keeps a NaN
        per.update((key, float(np.maximum(v, per.get(key, v)))) for key, v
                   in _grid_max("f", f, orders, y0 or 0, mode, factor).items())
    if chart.top is not None:
        gap = simplify(AddExpr(chart.top, MulExpr(-1, chart.f_comp)))
        per.update(_grid_max("f-slope", gap, orders[:-1], 0, mode, factor))
    if y0 is None:
        per["f", 0] = math.inf
    chart.bounds = per
    return per, mode


def verify_ck_chart(chart: Chart, factor: int = 1) -> CertificateReport:
    """Certify the unit-norm condition: every coordinate of the chart stays
    within distance 1 of its basepoint in C^k (`measure_chart_bounds`)."""
    return _report(*measure_chart_bounds(chart, factor), factor)
