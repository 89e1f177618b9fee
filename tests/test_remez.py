"""Norming constants: Chebyshev closed forms, the empirical LP constant
against them and against the one-LP-per-sample sweep, pinned LP constants,
hyperbola witnesses, gradient floors, and the chart-count law for the curve
parametrization."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothparam import remez
from smoothparam.bivar import BivarPoly
from smoothparam.errors import PreconditionFailed, SingularCurve, UnboundedLP
from smoothparam.remez import (RemezReport, _design_matrix, _monomials_2d,
                               chebyshev_value, classical_remez_bound,
                               curve_gradient_floor, empirical_remez_constant,
                               hyperbola_curve, hyperbola_remez_query,
                               normalize_curve, remez_parametrization)
from smoothparam.serialize import dumps, remez_report_to_json
from smoothparam.simplex import norming_lp


def test_chebyshev_values_exact():
    assert chebyshev_value(0, F(3)) == 1
    assert chebyshev_value(1, F(3)) == 3
    assert chebyshev_value(2, F(3)) == 17       # 2*9 - 1
    assert chebyshev_value(3, F(2)) == 26       # 4*8 - 3*2
    # three-term recurrence cross-check at a random rational point
    x = F(7, 5)
    for d in range(2, 8):
        assert chebyshev_value(d, x) == \
            2 * x * chebyshev_value(d - 1, x) - chebyshev_value(d - 2, x)


def test_classical_bound_formula():
    assert classical_remez_bound(2, F(1)) == 17
    assert classical_remez_bound(2, F(2)) == 1  # full interval: T_2(1) = 1
    for mu in (F(0), F(-1), F(3), math.nan, math.inf):
        with pytest.raises(PreconditionFailed, match="mu must lie in"):
            classical_remez_bound(2, mu)


def _grid_1d(lo, hi, n):
    return [(float(v), 0.0) for v in np.linspace(lo, hi, n)]


def test_lp_matches_classical_constant():
    Y = _grid_1d(-1, 1, 400)
    Z = _grid_1d(-1, 0, 400)
    rep = empirical_remez_constant(Y, Z, 2)
    assert abs(rep.R - 17) <= 0.01 * 17
    assert abs(rep.y_star[0] - 1.0) < 1e-9      # extremal point is x = 1


def test_lp_equal_sets_give_one():
    Y = _grid_1d(-1, 1, 200)
    rep = empirical_remez_constant(Y, Y, 2)
    assert abs(rep.R - 1.0) <= 1e-6


def test_lp_monotone_in_constraint_set():
    Y = _grid_1d(-1, 1, 200)
    small = empirical_remez_constant(Y, _grid_1d(-1, 0, 200), 2).R
    large = empirical_remez_constant(Y, _grid_1d(-1, 0.5, 200), 2).R
    assert small > large >= 1 - 1e-9


# (R, y*) from the constraint-generation simplex that the active-set solver
# replaced, on the same samples
PINNED = [
    ("classical", 2, 400, 17.000100502512087, (1.0, 0.0)),
    ("classical", 3, 200, 99.00242424242147, (1.0, 0.0)),
    (0.1, 2, 400, 3058.8858685844816,
     (0.010000000000000004, 0.9999999999999998)),
    (0.02, 2, 400, 35852.4538879688,
     (0.0004000000000000001, 0.9999999999999999)),
    # the LP at y* has two optimal vertices (Z rows 148 and 149)
    ("classical", 3, 199, 99.00979591836733, (1.0, 0.0)),
]


@pytest.mark.parametrize("curve, d1, samples, R, y_star", PINNED)
def test_lp_constants_are_pinned(curve, d1, samples, R, y_star):
    if curve == "classical":
        Y, Z = _grid_1d(-1, 1, samples), _grid_1d(-1, 0, samples)
    else:
        Y, Z = hyperbola_remez_query(curve, samples)
    rep = empirical_remez_constant(Y, Z, d1)
    assert abs(rep.R - R) <= 1e-11 * R
    assert rep.y_star == y_star


def test_lp_unbounded_off_the_constraint_line():
    # Z on y = 0 says nothing about the y-monomials, so Q(0, 1/2) is unbounded
    with pytest.raises(UnboundedLP):
        empirical_remez_constant([(0.0, 0.5)], _grid_1d(-1, 0, 50), 2)


def _one_lp_per_y(Y_samples, Z_samples, d1):
    """The oracle: one LP at every y in Y order, each warm-started from the
    last y's optimum, and the same tie-break."""
    monos = _monomials_2d(d1)
    Z = [tuple(map(float, z)) for z in Z_samples]
    Y = [tuple(map(float, y)) for y in Y_samples]
    M = _design_matrix(Z, monos)
    R, Q, y_star = -math.inf, None, None
    state = None
    for y in Y:
        cvec = np.array([y[0] ** i * y[1] ** j for (i, j) in monos])
        x, val, state = norming_lp(cvec, M, state)
        if val > R + 1e-12 or (abs(val - R) <= 1e-12
                               and (y_star is None or y < y_star)):
            R, Q, y_star = val, x, y
    return RemezReport(R=float(R), Q_star=Q, monomials=monos,
                       y_star=y_star, meta={"d1": d1, "n_Z": len(Z),
                                            "n_Y": len(Y), "rounds": 0})


def _line(mu_64, n_y, n_z):
    """Y on [-1, 1] and Z on [-1, mu - 1], mu = mu_64/64, both on y = 0."""
    return (_grid_1d(-1, 1, n_y),
            _grid_1d(-1, mu_64 / 64 - 1, n_z))


def _hyperbola(q, n_y, n_z):
    """Y on xy = eps^2 at x in [eps^2, 1], Z at x in [eps, 1]; eps = 1/q."""
    return hyperbola_remez_query(1 / q, n_y)[0], \
        hyperbola_remez_query(1 / q, n_z)[1]


def _arc(turns_64, n_y, n_z):
    """Y on the arc of the circle of radius 3/4 at angles [0, t], Z on its
    first 40%."""
    t = 2 * math.pi * turns_64 / 64
    return [[(0.75 * math.cos(a), 0.75 * math.sin(a))
             for a in np.linspace(0, s, n)] for s, n in ((t, n_y),
                                                         (0.4 * t, n_z))]


FAMILIES = {"line": (_line, st.integers(4, 128)),
            "hyperbola": (_hyperbola, st.integers(3, 256)),
            "arc": (_arc, st.integers(4, 48))}


@st.composite
def _cases(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    build, param = FAMILIES[family]
    Y, Z = build(draw(param), draw(st.integers(1, 120)),
                 draw(st.integers(10, 120)))
    return Y, Z, draw(st.integers(1, 3))


@settings(max_examples=90)
@given(_cases())
def test_sweep_by_dual_bounds_matches_one_lp_per_y(case):
    Y, Z, d1 = case
    try:
        want = _one_lp_per_y(Y, Z, d1)
    except UnboundedLP as off:
        with pytest.raises(UnboundedLP) as got:
            empirical_remez_constant(Y, Z, d1)
        assert np.array_equal(got.value.direction, off.direction)
        return
    got = empirical_remez_constant(Y, Z, d1)
    assert got.y_star == want.y_star
    assert abs(got.R - want.R) <= 1e-12 * abs(want.R)
    assert dumps(remez_report_to_json(got)) == \
        dumps(remez_report_to_json(want))


def test_unbounded_objective_after_the_pruning_point(monkeypatch):
    # on y = 0 the sweep needs 3 LPs of 200; an objective off that line at
    # the last y still raises, with the oracle's direction, before any LP
    Y, Z = _grid_1d(-1, 1, 200), _grid_1d(-1, 0, 200)
    calls = []

    def counted(*args):
        calls.append(args)
        return norming_lp(*args)
    monkeypatch.setattr(remez, "norming_lp", counted)
    empirical_remez_constant(Y, Z, 2)
    assert len(calls) < len(Y) - 1
    calls.clear()
    Y.append((0.3, 0.5))
    with pytest.raises(UnboundedLP) as want:
        _one_lp_per_y(Y, Z, 2)
    with pytest.raises(UnboundedLP) as got:
        empirical_remez_constant(Y, Z, 2)
    assert not calls
    assert np.array_equal(got.value.direction, want.value.direction)


def test_hyperbola_norming_beats_one_over_eps():
    for eps in (0.1, 0.01):
        Y, Z = hyperbola_remez_query(eps, 400)
        rep = empirical_remez_constant(Y, Z, 2)
        # the witness Q = y/eps already shows R >= 1/eps
        assert rep.R >= 1.0 / eps


def test_gradient_floor_closed_form():
    # on s (xy - eps^2) the floor s sqrt(2) eps sits at x = y = +-eps
    for j in range(3, 13):
        eps = 2.0 ** -j
        Pn = normalize_curve(hyperbola_curve(eps))
        s = float(Pn.coeffs[(1, 1)])
        rho, (x, y) = curve_gradient_floor(Pn)
        closed = s * math.sqrt(2) * eps
        assert abs(rho - closed) <= 1e-12 * closed, j
        assert abs(abs(x) - eps) <= 1e-12 * eps, j
        assert abs(abs(y) - eps) <= 1e-12 * eps, j


def _curve(coeffs):
    return BivarPoly({k: F(v) for k, v in coeffs.items()})


def test_gradient_floor_on_a_circle():
    # |grad P| = 2r everywhere, so L = P_x G_y - P_y G_x vanishes identically;
    # the vertical tangents x = +-r are irrational, and the midpoints of
    # their isolating intervals both fall outside this circle
    rho, (x, y) = curve_gradient_floor(_curve({(2, 0): 1, (0, 2): 1,
                                               (0, 0): "-2/3"}))
    assert abs(rho - 2 * math.sqrt(2 / 3)) <= 1e-12
    assert abs(x * x + y * y - 2 / 3) <= 1e-9


def test_gradient_floor_rejects_a_cusp():
    with pytest.raises(SingularCurve):
        curve_gradient_floor(_curve({(0, 2): 1, (3, 0): -1}))    # y^2 = x^3


def test_gradient_floor_at_a_corner():
    # xy = 1 meets the square only at the corners (1, 1) and (-1, -1)
    rho, arg = curve_gradient_floor(_curve({(1, 1): 1, (0, 0): -1}))
    assert rho == math.sqrt(2) and arg in ((1.0, 1.0), (-1.0, -1.0))


def test_gradient_floor_on_a_vertical_line():
    # (x - 1/3)(y^2 + 1): the line x = 1/3, on which P_y = 0 and P(1/3, .)
    # vanishes; |grad P| = y^2 + 1 there, least at y = 0
    rho, (x, y) = curve_gradient_floor(
        _curve({(1, 2): 1, (1, 0): 1, (0, 2): "-1/3", (0, 0): "-1/3"}))
    assert rho == 1.0
    assert abs(x - 1 / 3) <= 1e-12 and y == 0.0


def test_gradient_floor_rejects_a_curve_outside_the_square():
    with pytest.raises(SingularCurve, match="empty"):
        curve_gradient_floor(_curve({(2, 0): 1, (0, 2): 1, (0, 0): -9}))


def _dense_trace_floor(P, columns):
    """min |grad P| over the real roots of P(x, .) in [-1, 1] at `columns`
    equispaced x, by np.roots, in both orientations."""
    best = math.inf
    for Q, swap in ((P, False), (P.swap_xy(), True)):
        for x in np.linspace(-1, 1, columns):
            cs = [float(c) for c in Q.y_poly_at(F(x)).coeffs]
            for r in np.roots(cs[::-1]):
                if abs(r.imag) < 1e-9 and -1 <= r.real <= 1:
                    pt = (r.real, x) if swap else (x, r.real)
                    best = min(best, math.hypot(float(P.dx()(*pt)),
                                                float(P.dy()(*pt))))
    return best


def test_gradient_floor_of_a_cubic_against_a_dense_trace():
    P = normalize_curve(_curve({(0, 2): 1, (3, 0): -1, (1, 0): "1/2",
                                (0, 0): "-1/10"}))     # y^2 = x^3 - x/2 + 1/10
    rho, (x, y) = curve_gradient_floor(P)
    assert abs(float(P(x, y))) <= 1e-9
    sampled = _dense_trace_floor(P, 2001)
    assert rho <= sampled * (1 + 1e-12)
    assert sampled - rho <= 1e-4 * rho


def test_parametrization_chain_bound_dominates_lp():
    eps = 0.1
    res = remez_parametrization(hyperbola_curve(eps))
    assert res["chain_bound_is_heuristic"]
    assert res["N"] == len(res["charts"]) + res["removed"]
    Y, Z = hyperbola_remez_query(eps, 300)
    rep = empirical_remez_constant(Y, Z, 2)
    assert res["chain_bound"] >= rep.R


def test_chart_count_law_in_log_rho():
    xs, ys = [], []
    # j = 2 sits under the delta cap at 1/4 and is excluded from the fit
    for j in range(3, 13):
        eps = 2.0 ** -j
        res = remez_parametrization(hyperbola_curve(eps))
        xs.append(math.log2(1.0 / res["rho"]))
        ys.append(float(res["N"]))
    xs, ys = np.array(xs), np.array(ys)
    slope, icpt = np.polyfit(xs, ys, 1)
    pred = slope * xs + icpt
    r2 = 1 - float(np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2))
    assert r2 >= 0.98
    assert slope > 0
