"""Norming constants: Chebyshev closed forms, the empirical LP constant
against them, pinned LP constants, hyperbola witnesses, gradient floors, and
the chart-count law for the curve parametrization."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from smoothparam.errors import UnboundedLP
from smoothparam.remez import (chebyshev_value, classical_remez_bound,
                               curve_gradient_floor, empirical_remez_constant,
                               hyperbola_curve, hyperbola_remez_query,
                               normalize_curve, remez_parametrization)


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
    with pytest.raises(ValueError):
        classical_remez_bound(2, F(0))


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


def test_hyperbola_norming_beats_one_over_eps():
    for eps in (0.1, 0.01):
        Y, Z = hyperbola_remez_query(eps, 400)
        rep = empirical_remez_constant(Y, Z, 2)
        # the witness Q = y/eps already shows R >= 1/eps
        assert rep.R >= 1.0 / eps


def test_gradient_floor_closed_form():
    eps = 0.1
    Pn = normalize_curve(hyperbola_curve(eps))
    rho, (x, y) = curve_gradient_floor(Pn)
    closed = math.sqrt(2) * eps / (1 + eps * eps)
    assert abs(rho - closed) <= 1e-4 * closed
    assert abs(abs(x) - eps) < 1e-3 and abs(abs(y) - eps) < 1e-3


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
