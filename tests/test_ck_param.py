"""Derivative-killing parametrization: subdivision, square steps, full
inductions (1D and slab), and the chart certificates."""

import hashlib
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothparam.analytic_param import analytic_delta_parametrize
from smoothparam import charts, ck_param
from smoothparam.charts import Chart, verify_ck_chart
from smoothparam.ck_param import (ck_parametrize_function, ck_parametrize_slab,
                                  hyperbola_parametrization,
                                  kill_derivative_step, monotone_subdivision)
from smoothparam.errors import (BoundViolationAfterMaxDepth,
                                PreconditionFailed, SlabOrderViolation)
from smoothparam.funcs import (BlackboxExpr, MulExpr, RationalExpr, SqrtExpr,
                               hyperbola_branch, normalize_values)
from smoothparam.poly import Poly


def test_monotone_subdivision_cubic():
    # x^3, k=2: f''=6x vanishes at 0 -> exactly two pieces
    f = RationalExpr(Poly([0, 0, 0, 1]))
    pieces = monotone_subdivision(f, 2, (F(-1), F(1)))
    assert len(pieces) == 2
    assert pieces[0][0] == F(-1) and pieces[-1][1] == F(1)
    assert pieces[0][1] == pieces[1][0]
    assert abs(float(pieces[0][1])) < 1e-6


def test_monotone_subdivision_hyperbola_single_piece():
    # all derivatives of -eps^2/x are sign-constant on [-1, -eps]
    g = hyperbola_branch(F(1, 100))
    pieces = monotone_subdivision(g, 2, (F(-1), F(-1, 100)))
    assert len(pieces) == 1


def test_monotone_subdivision_degree6_matches_bisection_oracle():
    rng = random.Random(5)
    for _ in range(10):
        p = Poly([F(rng.randint(-3, 3)) for _ in range(7)])
        if p.degree < 4:
            continue
        f = RationalExpr(p)
        pieces = monotone_subdivision(f, 2, (F(-1), F(1)))
        # oracle: count distinct sign-change points of f', f'', f'''
        cuts = set()
        for order in (1, 2, 3):
            q = p
            for _ in range(order):
                q = q.deriv()
            xs = np.linspace(-1, 1, 4001)
            vs = q.eval_array(xs)
            s = np.sign(vs)
            for i in np.nonzero((s[1:] * s[:-1]) < 0)[0]:
                cuts.add(round(float(xs[i]), 2))
        assert len(pieces) <= len(cuts) + 1 + 2   # oracle may merge tangencies
        assert len(pieces) >= 1


def test_kill_step_hyperbola_bound_at_most_4():
    # normalized right half: g(x) = eps^2/x on [eps, 1] pulled to [0, 1]
    e = F(1, 100)
    g = RationalExpr(Poly([e * e]), Poly([0, 1])).precompose_poly(
        Poly.affine(1 - e, e))
    q, gq, bound, noop = kill_derivative_step(g, 2)
    assert not noop
    assert bound <= 4.0 + 1e-9


def test_kill_step_affine_is_noop():
    g = RationalExpr(Poly([F(1, 3), F(1, 2)]))
    q, gq, bound, noop = kill_derivative_step(g, 2)
    assert noop and bound == 0.0


def test_kill_step_x_three_halves_gives_t_cubed():
    # x^(3/2) on [0,1]: h(t) = t^2 turns it into t^3, all derivs <= 6
    x = RationalExpr(Poly([0, 1]))
    g = MulExpr(x, SqrtExpr(x))
    # g' has a 0*inf evaluation artifact at the endpoint; the closed form
    # below is what the step must produce regardless
    q, gq, bound, noop = kill_derivative_step(g, 2, check_preconditions=False)
    assert not noop
    ts = np.linspace(1e-6, 1.0, 2000)
    assert np.max(np.abs(gq.eval_array(ts) - ts ** 3)) < 1e-9
    # bound confirmed by dense interior sampling of the derivative chain
    chain = gq.derivative_chain(2)
    for x in np.linspace(0.05, 0.95, 40):
        x = F(x).limit_denominator(10**6)
        assert all(abs(float(g.eval(x))) <= 6.0 + 1e-6 for g in chain)


def test_ck_constant_single_chart():
    f = RationalExpr(Poly([F(1, 2)]))
    P = ck_parametrize_function(f, 2, (F(0), F(1)))
    assert P.chart_count == 1
    for ch in P.charts:
        assert verify_ck_chart(ch).ok


def test_hyperbola_golden_four_charts_exact():
    P = hyperbola_parametrization(F(1, 100), k=2)
    assert P.chart_count == 4
    for ch in P.charts:
        rep = verify_ck_chart(ch)
        assert rep.ok and rep.mode == "exact"
        assert rep.max_bound <= 1 + 1e-9


def test_degree_law_and_epsilon_uniformity():
    counts = []
    for j in range(1, 7):
        P = hyperbola_parametrization(F(1, 10 ** j), k=2)
        counts.append(P.chart_count)
        for ch in P.charts:
            assert ch.psi.degree <= 2 ** ch.k
    assert len(set(counts)) == 1   # count independent of eps, exactly


def test_x4_k3_against_dyadic_oracle():
    f = RationalExpr(Poly([0, 0, 0, 0, 1]))
    P = ck_parametrize_function(f, 3, (F(-1), F(1)))
    for ch in P.charts:
        assert verify_ck_chart(ch).ok
        assert ch.psi.degree <= 8
    # exhaustive dyadic-affine oracle: smallest depth at which every dyadic
    # affine chart of that depth passes at k=3 (pure-affine lower bound)
    def affine_ok(a, b):
        half = (b - a) / 2
        ps = Poly([0, 0, 0, 0, 1]).compose(Poly.affine(half, F(a + b, 2)))
        for i in range(1, 4):
            ps = ps.deriv()
            if max(abs(ps(F(j, 8))) for j in range(-8, 9)) > 1:
                return False
        return True
    depth = next(d for d in range(9)
                 if all(affine_ok(F(i, 2 ** d) * 2 - 1,
                                  F(i + 1, 2 ** d) * 2 - 1)
                        for i in range(2 ** d)))
    # the induction pays extra charts at derivative zeros; cross-check that
    # its count sits between the dyadic optimum and a small multiple of it
    assert 2 ** depth <= P.chart_count <= 4 * 2 ** depth


def test_chart_images_tile_domain():
    P = hyperbola_parametrization(F(1, 100), k=2)
    left = sorted(tuple(sorted(map(F, ch.image))) for ch in P.charts
                  if ch.image[0] < 0 or ch.image[1] < 0)
    assert left[0][0] == F(-1) and left[-1][1] == F(-1, 100)
    for (a1, b1), (a2, b2) in zip(left, left[1:]):
        assert b1 == a2   # exact rational tiling, no gaps


def test_slab_trivial_rectangle():
    g1 = RationalExpr(Poly([0]))
    g2 = RationalExpr(Poly([1]))
    P = ck_parametrize_slab(g1, g2, 2, (F(0), F(1)))
    assert P.chart_count == 1
    for ch in P.charts:
        assert verify_ck_chart(ch).ok


def test_slab_affine_slope_one():
    g1 = RationalExpr(Poly([0]))
    g2 = RationalExpr(Poly([0, 1]))   # y = x on [eps, 1]
    P = ck_parametrize_slab(g1, g2, 2, (F(1, 100), F(1)))
    assert P.chart_count >= 1
    for ch in P.charts:
        assert verify_ck_chart(ch).ok


@pytest.mark.parametrize("upper, k, count, digest", [
    ("eps^2/x", 2, 2, "6af440c5f32b179ae4795b51c81c432b0181bc3a778d360cbffbef3ac53b5c19"),
    ("eps^2/x", 3, 4, "808efc3749c567bf954bcead28f3fead99fcfdb040955325e97aa54c15f120ad"),
    ("x", 2, 1, "d4eee32b7f30f77fa462f9c381f4d38e2df54ea361338788bba0f32af7800ede"),
])
def test_slab_charts_are_pinned(upper, k, count, digest):
    # chart count and sha256 of every chart's exact data, as first computed
    e = F(1, 100)
    g2 = {"eps^2/x": RationalExpr(Poly([e * e]), Poly([0, 1])),
          "x": RationalExpr(Poly([0, 1]))}[upper]
    P = ck_parametrize_slab(RationalExpr(Poly([0])), g2, k, (e, F(1)))
    rows = []
    for c in P.charts:
        (n1, d1), (n2, d2) = c.f_comp.as_rational(), c.top.as_rational()
        rows.append((c.psi.coeffs, n1.coeffs, d1.coeffs, n2.coeffs, d2.coeffs))
    assert P.chart_count == count
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest


def test_normalization_leaves_unsampleable_values_alone():
    x = RationalExpr(Poly([0, 1]))
    inv = RationalExpr(Poly([1]), Poly([0, 1]))          # inf at x = 0
    assert normalize_values(inv, F(0), F(1))[1] == {}
    assert normalize_values(x, F(0), F(1))[1] == {}       # already in [0, 1]
    x1 = RationalExpr(Poly([1, 1]))     # values in [1, 3/2]: the identity map
    assert normalize_values(x1, F(0), F(1, 2)) == (x1, {})
    g, norm = normalize_values(x, F(-1), F(3))
    assert norm == {"scale": F(1, 4), "shift": F(1, 4)}
    assert g.eval(F(3)) == 1 and g.eval(F(-1)) == 0


def test_slab_order_violation_detected():
    g1 = RationalExpr(Poly([F(1, 2)]))
    g2 = RationalExpr(Poly([0, 1]))   # crosses g1 at x = 1/2
    with pytest.raises(SlabOrderViolation):
        ck_parametrize_slab(g1, g2, 2, (F(0), F(1)))
    g2 = RationalExpr(Poly([F(1, 4), -1, 1]))          # (x - 1/2)^2
    with pytest.raises(SlabOrderViolation, match="inside the slab"):
        ck_parametrize_slab(RationalExpr(Poly([0])), g2, 2, (F(0), F(1)))


@pytest.mark.parametrize("g2", [Poly([0, 1]), Poly([1, -1]), Poly([0, 1, -1])])
def test_slab_graphs_may_touch_at_the_ends(g2):
    # 0 <= y <= x, 1 - x and x(1 - x) on [0, 1]: g2 - g1 vanishes at an end
    P = ck_parametrize_slab(RationalExpr(Poly([0])), RationalExpr(g2), 2,
                            (F(0), F(1)))
    assert P.chart_count >= 1
    for ch in P.charts:
        rep = verify_ck_chart(ch)
        assert rep.ok and rep.mode == "exact"
        assert ch.meta["steps"][0][0] == "affine" and ch.meta["split"] >= 1


def test_slab_with_an_unbounded_graph_is_a_typed_error():
    inv = RationalExpr(Poly([1]), Poly([0, 1]))         # 1/x on [0, 1]
    with np.errstate(divide="ignore"), pytest.raises(
            PreconditionFailed, match="order-1 derivative unbounded"):
        ck_parametrize_slab(RationalExpr(Poly([0])), inv, 2, (F(0), F(1)))


def test_a_slab_that_no_split_reduces_names_what_blocks_it(monkeypatch):
    # x^2 <= y <= (2 + 2x)/(2 + x) on [0, 1] is 1 tall at x = 0, so the
    # order-0 values ('f', 0) and ('f-slope', 0) exceed 1 on every split;
    # the error names them and the worst value of the last failed report
    failed = []

    def recorded(ch):
        rep = verify_ck_chart(ch)
        failed.extend([] if rep.ok else [rep])
        return rep

    monkeypatch.setattr(ck_param, "verify_ck_chart", recorded)
    g1, g2 = RationalExpr(Poly([0, 0, 1])), RationalExpr(Poly([2, 2]),
                                                         Poly([2, 1]))
    with pytest.raises(BoundViolationAfterMaxDepth) as info:
        ck_parametrize_slab(g1, g2, 2, (F(0), F(1)))
    per = failed[-1].per_order
    worst = max(per, key=per.get)
    over = [key for key, v in per.items() if v > 1 + failed[-1].tolerance]
    assert over == [("f", 0), ("f-slope", 0)]
    msg = str(info.value)
    assert "not reducible within 3 extra splits" in msg
    assert f"{over[0]}, {over[1]} over the bound" in msg
    assert msg.endswith(f"the worst {worst} = {per[worst]:.6g}")


def _scan(num, den, i, N, shift=0):
    """max |(num/den)^(i) - shift| over the points j/N, j = 0..N, in
    Fractions, the i-th derivative taken by the quotient rule; the shift
    applies at order 0 only."""
    for _ in range(i):
        num, den = num.deriv() * den - num * den.deriv(), den * den
        shift = 0
    return max(abs(num(F(j, N)) / den(F(j, N)) - shift) for j in range(N + 1))


_Q = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
_Q_POS = st.builds(F, st.integers(0, 6), st.integers(1, 6))


@st.composite
def _rational_chart(draw):
    """(psi, (n1, d1), (n2, d2) or None, k): a graph chart carrying
    f_comp = n1/d1, or a slab chart with top = n2/d2 = f_comp + gap above it
    on [0, 1], with a positive gap and denominators positive there."""
    psi = Poly(draw(st.lists(_Q, min_size=1, max_size=3)))
    n1, d1 = Poly(draw(st.lists(_Q, min_size=1, max_size=3))), Poly(
        [1, 0, draw(_Q_POS)])
    gap_n, gap_d = Poly([draw(_Q_POS) + F(1, 6), draw(_Q_POS)]), Poly(
        [1, draw(_Q_POS)])
    top = draw(st.sampled_from([None, (n1 * gap_d + gap_n * d1, d1 * gap_d)]))
    return psi, (n1, d1), top, draw(st.integers(0, 3))


@settings(max_examples=30)
@given(chart=_rational_chart(), N=st.integers(1, 24))
def test_exact_slab_orders_match_a_fraction_scan(chart, N):
    # a graph chart is the case top = None: its ('f', i) are those of
    # f_comp alone, order 0 less f_comp(0) as for a slab, and it has no slope
    psi, (n1, d1), top, k = chart
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charts, "EXACT_GRID_POINTS", N)
        rep = verify_ck_chart(Chart(
            psi=psi, f_comp=RationalExpr(n1, d1), k=k,
            top=None if top is None else RationalExpr(*top)))
    assert rep.mode == "exact"
    y0 = n1(F(0)) / d1(F(0))
    want = {}
    for i in range(k + 1):
        want[("psi", i)] = _scan(psi, Poly([1]), i, N, psi(F(0)))
        want[("f", i)] = max(_scan(n, d, i, N, y0)
                             for n, d in [(n1, d1)] + ([top] if top else []))
    for i in range(k if top else 0):
        n2, d2 = top
        want[("f-slope", i)] = _scan(n2 * d1 - n1 * d2, d1 * d2, i, N)
    assert rep.per_order == {key: float(v) for key, v in want.items()}


_X2, _X2_1 = RationalExpr(Poly([0, 0, 1])), RationalExpr(Poly([1, 0, 1]))


@pytest.mark.parametrize("build, named", [
    (lambda: ck_parametrize_function(_X2, 2, (1, 0)), "interval must have"),
    (lambda: ck_parametrize_function(_X2, -1, (0, 1)), "k must be >= 0"),
    (lambda: ck_parametrize_slab(_X2, _X2_1, 2, (1, 1)), "interval must have"),
    (lambda: ck_parametrize_slab(_X2, _X2_1, -1, (0, 1)), "k must be >= 0"),
    (lambda: analytic_delta_parametrize(_X2, F(1, 4), (1, 0)),
     "interval must have"),
])
def test_bad_k_and_reversed_intervals_are_typed_errors(build, named):
    with pytest.raises(PreconditionFailed, match=named):
        build()


def test_slab_branch_count_at_most_twice_function_count():
    e = F(1, 100)
    g2 = RationalExpr(Poly([e * e]), Poly([0, 1]))   # eps^2/x on [eps, 1]
    g1 = RationalExpr(Poly([0]))
    P2 = ck_parametrize_slab(g1, g2, 2, (e, F(1)))
    P1 = ck_parametrize_function(g2, 2, (e, F(1)), normalize=False)
    assert P2.chart_count <= 2 * P1.chart_count


def test_blackbox_sign_pattern_determines_combinatorics():
    # two different blackboxes with the same derivative sign patterns must
    # produce the same subdivision combinatorics (piece counts)
    def mk(scale):
        return BlackboxExpr(
            fn=lambda x, s=scale: math.sin(s * x) / (4 * s),
            zero_count=2,
            deriv_fns=[lambda x, s=scale: math.cos(s * x) / 4,
                       lambda x, s=scale: -s * math.sin(s * x) / 4,
                       lambda x, s=scale: -s * s * math.cos(s * x) / 4],
        )
    p1 = monotone_subdivision(mk(2.0), 2, (F(-1), F(1)))
    p2 = monotone_subdivision(mk(2.2), 2, (F(-1), F(1)))
    assert len(p1) == len(p2)
