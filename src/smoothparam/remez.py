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
from .bivar import BivarPoly, resultant_y
from .errors import PreconditionFailed, SingularCurve
from .funcs import singular_locus
from .poly import _fr, isolate_roots
from .simplex import (LP_TOLERANCE, dual_bounds, norming_lp,
                      norming_objectives)

REMEZ_C1 = 0.125                     # delta = c1 * rho / 2 proportionality
NORMALIZE_SAMPLES = 512              # per side of the unit-square grid


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


def check_measure(mu) -> None:
    """Reject a measure mu of a subset of [-1, 1] outside (0, 2]; NaN fails
    the comparison too."""
    if not 0 < float(mu) <= 2:
        raise PreconditionFailed(f"measure mu must lie in (0, 2], got {mu}")


def classical_remez_bound(d: int, mu):
    """T_d((4 - mu)/mu): the sharp constant for degree-d polynomials bounded
    on a measure-mu subset of [-1, 1]."""
    mu = _fr(mu) if isinstance(mu, (int, Fraction, str)) else mu
    check_measure(mu)
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
    sampled: no cutting-plane rounds refine it (meta["rounds"] is 0).  A d1
    with more monomials than Z samples is rejected before any is built.

    The LP is solved only at the y that can still be the maximum.  First
    every objective is tested, in Y order, for a component off the row
    space of Z's monomials (UnboundedLP at the first that has one).  Then
    the optimal vertex of each solved LP bounds the value at every y by
    weak duality (`simplex.dual_bounds`), and UB(y) is the least bound so
    far.  The unsolved y with the largest UB is solved next, warm-started
    from the optimum of the solved y nearest it in Y order.  The sweep
    stops when every unsolved y has UB below best - 1e-12 - pad, pad =
    LP_TOLERANCE * max(1, |best|): those y provably cannot reach the
    maximum or tie with it.  The solved y are then scanned in Y order,
    and the witness is the lexicographically smallest y within 1e-12 of
    the largest value."""
    if not len(Y_samples) or not len(Z_samples):
        raise PreconditionFailed(
            f"Y_samples and Z_samples must be non-empty, got {len(Y_samples)} "
            f"and {len(Z_samples)} samples")
    if d1 < 0:
        raise PreconditionFailed(f"d1 must be >= 0, got {d1}")
    if (m := (d1 + 1) * (d1 + 2) // 2) > len(Z_samples):
        raise PreconditionFailed(f"d1 = {d1} has {m} monomials, more than "
                                 f"the {len(Z_samples)} Z samples")
    monos = _monomials_2d(d1)
    Z = [tuple(map(float, z)) for z in Z_samples]
    Y = [tuple(map(float, y)) for y in Y_samples]
    C = np.array([[y[0] ** i * y[1] ** j for (i, j) in monos] for y in Y])
    CU, state = norming_objectives(C, _design_matrix(Z, monos))
    ub = np.full(len(Y), np.inf)     # -inf once solved
    solved = {}                      # index in Y -> (value, x, u, active)
    best = -math.inf
    while len(solved) < len(Y):
        i = int(np.argmax(ub))
        if ub[i] < best - 1e-12 - LP_TOLERANCE * max(1.0, abs(best)):
            break
        near = min(solved, key=lambda j: (abs(j - i), j), default=None)
        if near is not None:
            state.u, state.active = solved[near][2:]
        x, val, state = norming_lp(C[i], state.M, state)
        solved[i] = (val, x, state.u, state.active)
        bound = dual_bounds(state, CU)
        if bound is not None:
            np.minimum(ub, bound, out=ub)
        ub[i] = -np.inf
        best = max(best, val)
    R, Q, y_star = -math.inf, None, None
    for i in sorted(solved):
        val, x, y = *solved[i][:2], Y[i]
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


def _curve_points(P: BivarPoly):
    """Points of {P = 0} in [-1, 1]^2, midpoints of isolating intervals in y,
    above x = +-1 and above both ends of the isolating interval of each real
    root in [-1, 1] of
    - Res_y(P, L), L = P_x G_y - P_y G_x: the critical points of
      G = |grad P|^2 on the curve;
    - Res_y(P, P_y): the vertical tangents, which every closed arc has, also
      one on which L vanishes and G is constant.
    Both ends, not the midpoint: beside an irrational vertical tangent the
    midpoint can miss the arc."""
    Px, Py = P.dx(), P.dy()
    G = Px * Px + Py * Py
    L = Px * G.dy() - Py * G.dx()
    xs = {Fraction(-1), Fraction(1)}
    for Q in (L, Py):
        if P.degy > 0 and not Q.is_zero():
            R = resultant_y(P, Q)
            if not R.is_zero():     # a shared factor: G is constant on it
                for a, b in isolate_roots(R, -1, 1):
                    xs.update((a, b))
    for x in sorted(xs):
        ypoly = P.y_poly_at(x)
        if not ypoly.is_zero():     # a line x = c: found swapped
            for a, b in isolate_roots(ypoly, -1, 1):
                yield x, (a + b) / 2


def curve_gradient_floor(P: BivarPoly):
    """rho = min over the curve in the unit square of |grad P|, and its
    argmin, by elimination in both orientations, so that critical points on
    vertical tangents and on lines x = c are found.  |grad P| is exact at
    points within 2^-41 of the curve."""
    pts = list(_curve_points(P))
    pts += [(x, y) for y, x in _curve_points(P.swap_xy())]
    if not pts:
        raise SingularCurve("curve is empty in the unit square")
    Px, Py = P.dx(), P.dy()
    rho, arg = min((math.hypot(float(Px(x, y)), float(Py(x, y))),
                    (float(x), float(y))) for x, y in pts)
    if rho < 1e-12:
        raise SingularCurve(f"gradient floor {rho:.3g} below threshold")
    return rho, arg


def remez_parametrization(P: BivarPoly):
    """Analytic parametrization of the curve's branch structure at scale
    delta = c1*rho/2, plus one implicit-function chart per removed box;
    reports N (total charts) and the heuristic chain bound 2^N."""
    Pn = normalize_curve(P)
    if Pn.degy < 1:
        raise SingularCurve("curve degenerate in y")
    rho, arg = curve_gradient_floor(Pn)
    delta = Fraction(REMEZ_C1 * rho / 2).limit_denominator(2**40)
    part = dyadic_partition((-1, 1), singular_locus(Pn),
                            min(delta, Fraction(1, 4)))
    charts = []
    for (a, b) in part.kept:
        branches = isolate_roots(Pn.y_poly_at((a + b) / 2), -1, 1)
        charts += [(float(a), float(b))] * len(branches)
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
    if e * e == 0:
        raise PreconditionFailed(f"eps = {eps} is so small that eps^2 "
                                 "underflows to 0 in floats")
    xs_full = np.exp(np.linspace(math.log(e * e), 0.0, n_samples))
    Y = [(x, e * e / x) for x in xs_full]
    xs_half = np.exp(np.linspace(math.log(e), 0.0, n_samples))
    Z = [(x, e * e / x) for x in xs_half]
    return Y, Z
