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
from .config import DEFAULT, Config
from .errors import SingularCurve
from .funcs import singular_locus
from .poly import _fr
from .simplex import norming_lp


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


def empirical_remez_constant(Y_samples, Z_samples, d1: int,
                             cfg: Config = DEFAULT,
                             refine_Z=None) -> RemezReport:
    """R = max over y* in Y of  max { Q(y*) : -1 <= Q <= 1 on Z },
    Q ranging over polynomials of degree <= d1 in (x, y).

    Cutting-plane refinement: if `refine_Z` (a callable returning a finer Z
    sample) is given, violated constraints are appended and the LPs re-solved
    until the constant moves by < 1%."""
    monos = _monomials_2d(d1)
    Z = [tuple(map(float, z)) for z in Z_samples]
    Y = [tuple(map(float, y)) for y in Y_samples]
    best = (-math.inf, None, None)

    def solve_all(Zcur):
        M = _design_matrix(Zcur, monos)
        top = (-math.inf, None, None)
        working = None
        for y in Y:
            cvec = np.array([y[0] ** i * y[1] ** j for (i, j) in monos])
            x, val, working = norming_lp(cvec, M, tol=cfg.lp_tolerance,
                                         working=working)
            # deterministic tie-break: lexicographically smallest witness
            if val > top[0] + 1e-12 or (abs(val - top[0]) <= 1e-12
                                        and (top[2] is None or y < top[2])):
                top = (val, x, y)
        return top

    best = solve_all(Z)
    rounds = 0
    while refine_Z is not None and rounds < 5:
        fine = [tuple(map(float, z)) for z in refine_Z(2 ** (rounds + 1))]
        Mf = _design_matrix(fine, monos)
        vals = Mf @ best[1]
        bad = [fine[i] for i in np.nonzero(np.abs(vals) > 1 + 1e-9)[0]]
        if not bad:
            break
        Z = Z + bad
        new = solve_all(Z)
        rounds += 1
        if abs(new[0] - best[0]) <= 0.01 * abs(best[0]):
            best = new
            break
        best = new
    R, Q, y = best
    return RemezReport(R=float(R), Q_star=Q, monomials=monos,
                       y_star=y, meta={"d1": d1, "n_Z": len(Z),
                                       "n_Y": len(Y), "rounds": rounds})


# -- curve machinery -----------------------------------------------------------

def normalize_curve(P: BivarPoly, n: int = 512) -> BivarPoly:
    """Scale P so max |P| over the unit square equals 1."""
    m = P.max_abs_on_unit_square(n)
    if m == 0:
        raise SingularCurve("zero polynomial")
    return P * Fraction(1 / m).limit_denominator(10**12)


def trace_curve(P: BivarPoly, n_cols: int = 1000, box=(-1, 1, -1, 1)):
    """Sample points of {P = 0} inside the box by per-column root finding
    (both orientations, so near-vertical pieces are caught)."""
    x0, x1, y0, y1 = box
    pts = []
    for Q, swap in ((P, False), (P.swap_xy(), True)):
        lo, hi = (x0, x1) if not swap else (y0, y1)
        for x in np.linspace(lo, hi, n_cols):
            cs = Q.y_poly_coeffs_complex(complex(x))
            cs = np.trim_zeros(cs, trim="b")
            if len(cs) <= 1:
                continue
            for r in np.roots(cs[::-1]):
                if abs(r.imag) < 1e-9:
                    y = float(r.real)
                    a, b = (y0, y1) if not swap else (x0, x1)
                    if a - 1e-12 <= y <= b + 1e-12:
                        pts.append((float(x), y) if not swap else (y, float(x)))
    return pts


def curve_gradient_floor(P: BivarPoly, n_cols: int = 1000,
                         polish: bool = True):
    """rho = min over the curve in the unit square of |grad P|, with local
    polish around the sampled argmin."""
    pts = trace_curve(P, n_cols)
    if not pts:
        raise SingularCurve("curve is empty in the unit square")
    Px, Py = P.dx(), P.dy()

    def grad_norm(x, y):
        return math.hypot(float(Px(x, y)), float(Py(x, y)))

    vals = [(grad_norm(x, y), (x, y)) for (x, y) in pts]
    rho, arg = min(vals)
    if polish:
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


def remez_parametrization(P: BivarPoly, cfg: Config = DEFAULT):
    """Analytic parametrization of the curve's branch structure at scale
    delta = c1*rho/2, plus one implicit-function chart per removed box;
    reports N (total charts) and the heuristic chain bound 2^N."""
    Pn = normalize_curve(P)
    rho, arg = curve_gradient_floor(Pn)
    delta = cfg.remez_c1 * rho / 2
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
    xs_full = np.exp(np.linspace(math.log(e * e), 0.0, n_samples))
    Y = [(x, e * e / x) for x in xs_full]
    xs_half = np.exp(np.linspace(math.log(e), 0.0, n_samples))
    Z = [(x, e * e / x) for x in xs_half]
    return Y, Z
