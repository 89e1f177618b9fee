"""Norming (Remez-type) inequalities on curves: the classical Chebyshev
bound, empirical norming constants by LP over sampled curves, the gradient
floor of an algebraic curve, and the chart-count / chain-extension bound
coupling the norming constant to the analytic parametrization."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .analytic_param import dyadic_partition
from .bivar import BivarPoly
from .errors import PreconditionFailed, SingularCurve
from .funcs import singular_locus
from .poly import _fr
from .simplex import norming_lp

REMEZ_C1 = 0.125                     # delta = c1 * rho / 2 proportionality
NORMALIZE_SAMPLES = 512              # per side of the unit-square grid
TRACE_COLUMNS = 1000                 # root-finding columns per orientation


def chebyshev_value(d: int, x):
    """T_d(x) by the recurrence; exact for rational x."""
    if isinstance(x, (int, Fraction)):
        x = _fr(x)
    t0, t1 = (Fraction(1) if isinstance(x, Fraction) else 1.0), x
    if d == 0:
        return t0
    for _ in range(d - 1):
        t0, t1 = t1, 2 * x * t1 - t0
    return t1


def classical_remez_bound(d: int, mu):
    """T_d((4 - mu)/mu): the sharp constant for degree-d polynomials bounded
    on a measure-mu subset of [-1, 1]."""
    mu = _fr(mu) if isinstance(mu, (int, Fraction, str)) else mu
    if not 0 < float(mu) <= 2:
        raise ValueError("measure must lie in (0, 2]")
    arg = (4 - mu) / mu
    return chebyshev_value(d, arg)


# -- empirical constants via LP ------------------------------------------------

def _monomials_2d(d: int):
    return [(i, j) for total in range(d + 1)
            for i in range(total + 1) for j in [total - i]]


def _design_matrix(points, monos):
    pts = np.asarray(points, dtype=float)
    cols = [pts[:, 0] ** i * pts[:, 1] ** j for (i, j) in monos]
    return np.vstack(cols).T


@dataclass
class RemezReport:
    R: float
    Q_star: np.ndarray
    monomials: list
    y_star: tuple
    meta: dict = field(default_factory=dict)


def empirical_remez_constant(Y_samples, Z_samples, d1: int) -> RemezReport:
    """R = max over y* in Y of  max { Q(y*) : -1 <= Q <= 1 on Z },
    Q ranging over polynomials of degree <= d1 in (x, y).  Z is taken as
    sampled: no cutting-plane rounds refine it (meta["rounds"] is 0)."""
    if not len(Y_samples) or not len(Z_samples):
        raise PreconditionFailed(
            f"Y_samples and Z_samples must be non-empty, got {len(Y_samples)} "
            f"and {len(Z_samples)} samples")
    if d1 < 0:
        raise PreconditionFailed(f"d1 must be >= 0, got {d1}")
    monos = _monomials_2d(d1)
    Z = [tuple(map(float, z)) for z in Z_samples]
    Y = [tuple(map(float, y)) for y in Y_samples]
    M = _design_matrix(Z, monos)
    R, Q, y_star = -math.inf, None, None
    state = None                     # warm start: the last y's optimum
    for y in Y:
        cvec = np.array([y[0] ** i * y[1] ** j for (i, j) in monos])
        x, val, state = norming_lp(cvec, M, state)
        # deterministic tie-break: lexicographically smallest witness
        if val > R + 1e-12 or (abs(val - R) <= 1e-12
                               and (y_star is None or y < y_star)):
            R, Q, y_star = val, x, y
    return RemezReport(R=float(R), Q_star=Q, monomials=monos,
                       y_star=y_star, meta={"d1": d1, "n_Z": len(Z),
                                            "n_Y": len(Y), "rounds": 0})


# -- curve machinery -----------------------------------------------------------

def normalize_curve(P: BivarPoly) -> BivarPoly:
    """Scale P so max |P| over the unit square equals 1."""
    m = P.max_abs_on_unit_square(NORMALIZE_SAMPLES)
    if m == 0:
        raise SingularCurve("zero polynomial")
    return P * Fraction(1 / m).limit_denominator(10**12)


def trace_curve(P: BivarPoly):
    """Sample points of {P = 0} inside [-1, 1]^2 by per-column root finding
    (both orientations, so near-vertical pieces are caught)."""
    pts, xs = [], np.linspace(-1, 1, TRACE_COLUMNS)
    for Q, swap in ((P, False), (P.swap_xy(), True)):
        for x, cs in zip(xs, Q.y_poly_coeffs_complex(xs.astype(complex)).T):
            cs = np.trim_zeros(cs, trim="b")
            if len(cs) <= 1:
                continue
            for r in np.roots(cs[::-1]):
                if abs(r.imag) < 1e-9:
                    y = float(r.real)
                    if -1 - 1e-12 <= y <= 1 + 1e-12:
                        pts.append((float(x), y) if not swap else (y, float(x)))
    return pts


def curve_gradient_floor(P: BivarPoly):
    """rho = min over the curve in the unit square of |grad P|, with local
    polish around the sampled argmin."""
    pts = trace_curve(P)
    if not pts:
        raise SingularCurve("curve is empty in the unit square")
    Px, Py = P.dx(), P.dy()

    def grad_norm(x, y):
        return math.hypot(float(Px(x, y)), float(Py(x, y)))

    vals = [(grad_norm(x, y), (x, y)) for (x, y) in pts]
    rho, arg = min(vals)
    from scipy.optimize import minimize
    res = minimize(lambda v: grad_norm(v[0], v[1]), np.array(arg),
                   method="SLSQP",
                   constraints=[{"type": "eq",
                                 "fun": lambda v: float(P(v[0], v[1]))}],
                   bounds=[(-1, 1), (-1, 1)])
    if res.success and res.fun < rho and abs(float(P(res.x[0], res.x[1]))) < 1e-8:
        rho, arg = float(res.fun), (float(res.x[0]), float(res.x[1]))
    if rho < 1e-12:
        raise SingularCurve(f"gradient floor {rho:.3g} below threshold")
    return rho, arg


def remez_parametrization(P: BivarPoly):
    """Analytic parametrization of the curve's branch structure at scale
    delta = c1*rho/2, plus one implicit-function chart per removed box;
    reports N (total charts) and the heuristic chain bound 2^N."""
    Pn = normalize_curve(P)
    rho, arg = curve_gradient_floor(Pn)
    delta = REMEZ_C1 * rho / 2
    delta = Fraction(delta).limit_denominator(2**40)
    if Pn.degy < 1:
        raise SingularCurve("curve degenerate in y")
    part = dyadic_partition((-1, 1), singular_locus(Pn),
                            min(delta, Fraction(1, 4)))
    charts = []
    for (a, b) in part.kept:
        c = (a + b) / 2
        ypoly = Pn.y_poly_at(c)
        branch_count = 0
        for r in np.roots(ypoly.as_float_coeffs()[::-1]) if ypoly.degree > 0 else []:
            if abs(r.imag) < 1e-9 and -1 - 1e-9 <= r.real <= 1 + 1e-9:
                branch_count += 1
        for _ in range(branch_count):
            charts.append((float(a), float(b)))
    N = len(charts) + len(part.removed)
    return {"N": N, "chain_bound": 2.0 ** N if N < 1024 else math.inf,
            "chain_bound_log2": N, "rho": rho, "argmin": arg,
            "delta": float(delta), "kept": len(part.kept),
            "removed": len(part.removed), "charts": charts,
            "chain_bound_is_heuristic": True}


def hyperbola_curve(eps) -> BivarPoly:
    e = _fr(eps)
    return BivarPoly({(1, 1): 1, (0, 0): -e * e})


def hyperbola_remez_query(eps, n_samples: int = 1000):
    """(Y samples, Z samples) for the hyperbola xy = eps^2 in the unit
    square; Z is the half-branch x in [eps, 1]."""
    e = float(eps)
    if not 0 < e < 1:
        raise PreconditionFailed(f"eps must be in (0, 1), got {eps}")
    if n_samples < 1:
        raise PreconditionFailed(f"n_samples must be >= 1, got {n_samples}")
    xs_full = np.exp(np.linspace(math.log(e * e), 0.0, n_samples))
    Y = [(x, e * e / x) for x in xs_full]
    xs_half = np.exp(np.linspace(math.log(e), 0.0, n_samples))
    Z = [(x, e * e / x) for x in xs_half]
    return Y, Z
