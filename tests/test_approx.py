"""Polynomial approximation with complexity accounting: exact Taylor data,
analytic-tail remainders, removed-box bookkeeping, and the log-cubic
complexity model against power laws."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothparam.approx import (PATCH_SAMPLES, analytic_approximate,
                                ck_approximate, aic_of_fit,
                                compare_log_cubic_vs_power, taylor_patch,
                                taylor_polynomial)
from smoothparam.analytic_param import hyperbola_analytic_charts
from smoothparam import serialize
from smoothparam import approx
from smoothparam.errors import DegreeOverflow, EvaluationAtSingularity
from smoothparam.funcs import (BlackboxExpr, RationalExpr, SqrtExpr,
                               normalize_values)
from smoothparam.poly import Poly

PASS = {"ok": True, "kind": "approximation", "failures": []}


def _verify(A, source):
    """verify_bundle's verdict on A's artifact, read back from its text."""
    return serialize.verify_bundle(serialize.loads(serialize.dumps(
        serialize.approximation_to_json(A, source=source))))


def test_taylor_polynomial_exact_for_polynomials():
    g = RationalExpr(Poly([0, 0, 1]))
    assert taylor_polynomial(g, 2, F(0)) == Poly([0, 0, 1])
    assert taylor_polynomial(g, 5, F(1, 2)) == Poly([0, 0, 1])


def test_taylor_polynomial_geometric_series():
    # 1/(1 - x) at 0: coefficients are all 1, exactly
    g = RationalExpr(Poly([1]), Poly([1, -1]))
    p = taylor_polynomial(g, 6, F(0))
    assert p == Poly([1] * 7)


def _fraction_taylor(num, den, d, c):
    """The Taylor division over Fraction that `_rational_taylor` ran before
    it moved to Z: the oracle for the integer recurrence."""
    shift = Poly.affine(1, c)
    ns = num.compose(shift).coeffs
    ds = den.compose(shift).coeffs
    if not ds or ds[0] == 0:
        raise EvaluationAtSingularity(f"pole at expansion center {c}")
    q = []
    for j in range(d + 1):
        acc = ns[j] if j < len(ns) else F(0)
        for i in range(j):
            dj = ds[j - i] if j - i < len(ds) else F(0)
            if dj:
                acc -= q[i] * dj
        q.append(acc / ds[0])
    return Poly(q).compose(Poly.affine(1, -c))


_fraction = st.builds(F, st.integers(-40, 40), st.integers(1, 16))
_rational_poly = st.lists(st.one_of(_fraction, st.just(F(0))),
                          max_size=9).map(Poly)


@settings(max_examples=300)
@given(num=_rational_poly, den=_rational_poly, d=st.integers(0, 30),
       c=st.one_of(st.just(F(0)), _fraction), pole=st.booleans())
@example(num=Poly([1]), den=Poly([0, 1]), d=5, c=F(0), pole=False)
@example(num=Poly([1, 2]), den=Poly([3, 0, 1]), d=12, c=F(-2, 3), pole=True)
def test_integer_taylor_division_matches_the_fraction_recurrence(
        num, den, d, c, pole):
    # the analytic route expands at 0, the C^k route at rational centres;
    # with pole, den vanishes at c and both must raise
    if pole:
        den = den * Poly([-c, 1])
    try:
        want = _fraction_taylor(num, den, d, c)
    except EvaluationAtSingularity:
        with pytest.raises(EvaluationAtSingularity, match="pole"):
            approx._rational_taylor(num, den, d, c)
        return
    assert not pole
    got = approx._rational_taylor(num, den, d, c)
    assert got == want and got.coeffs == want.coeffs


@pytest.mark.parametrize("center", [F(1, 4), 0.3])
def test_taylor_polynomial_of_sqrt_is_the_shifted_binomial_series(center):
    # sqrt(x) about c: a_i = binom(1/2, i) c^(1/2 - i), expanded in powers of
    # x exactly; p(c + h) is then the series sum a_i h^i
    g = SqrtExpr(RationalExpr(Poly([0, 1])))
    c = float(center)
    a, b = [], 1.0
    for i in range(7):
        a.append(b * c ** (0.5 - i))
        b *= (0.5 - i) / (i + 1)
    for d in range(7):
        p = taylor_polynomial(g, d, center)
        assert all(type(q) is F for q in p.coeffs)
        for h in (-0.1, 0.05, 0.2):
            want = sum(a[i] * h ** i for i in range(d + 1))
            got = float(p(F(c) + F(h)))
            assert abs(got - want) <= 1e-12 * abs(want)


def test_analytic_tail_bound_is_K_times_two_to_minus_d(cheap_circles):
    P = hyperbola_analytic_charts(F(1, 10), F(1, 16))
    ch = P.charts[0]
    K = ch.meta["K"]
    for d in (4, 8, 12):
        p, bound = taylor_patch(ch.f_comp, d, F(0), 1, "analytic", K=K)
        assert bound == K * 2.0 ** (-d)
        ts = np.linspace(-1, 1, 800)
        err = float(np.max(np.abs(ch.f_comp.eval_array(ts) - p.eval_array(ts))))
        assert err <= bound * (1 + 1e-9)


def test_complexity_is_sum_of_degree_powers(cheap_circles):
    e = F(1, 2 ** 20)
    f = RationalExpr(Poly([e * e]), Poly([0, 1]))
    A = analytic_approximate(f, (e, F(1)), 2.0 ** -8,
                             declared_singularities=[0j], slab=True)
    assert A.complexity == sum(p.degree ** p.dim for p in A.patches)
    assert A.complexity > 0


def test_removed_boxes_respect_epsilon(cheap_circles):
    e = F(1, 2 ** 20)
    f = RationalExpr(Poly([e * e]), Poly([0, 1]))
    eps = 2.0 ** -8
    A = analytic_approximate(f, (e, F(1)), eps,
                             declared_singularities=[0j])
    boxes = [p for p in A.patches if p.source == "removed-box"]
    assert boxes                         # the strip [e, eps) must be boxed
    for b in boxes:
        assert b.sup_error <= eps * (1 + 1e-12)
        assert b.side <= eps * (1 + 1e-12)
        assert b.degree ** b.dim == 1    # each box costs one unit
    assert _verify(A, f) == PASS


def test_removed_strip_covering_the_interval_is_boxed():
    # the strip (-1/4, 1/4) removed around the declared singularity covers
    # all of [-1/8, 1/8]: no chart is kept, and the strip is still boxed
    f = RationalExpr(Poly([1]), Poly([1, 1]))
    A = analytic_approximate(f, (F(-1, 8), F(1, 8)), 0.25,
                             declared_singularities=[0j])
    assert A.meta["charts"] == 0 and A.meta["removed"] == 1
    assert [p.source for p in A.patches] == ["removed-box"]
    assert A.complexity == 1
    assert _verify(A, f) == PASS


def test_nan_patch_error_is_a_failure(monkeypatch):
    # exp(x)/3 on [0, 1], every derivative given, returning NaN at one point
    # that only the patch-error sampling visits: a NaN sup_error must fail
    # (NaN > eps is False, so such a patch was once kept)
    sampled, elsewhere, inside = [], set(), [False]
    nan_at = [None]

    def fn(x):
        if x == nan_at[0]:
            return math.nan
        (sampled.append if inside[0] else elsewhere.add)(x)
        return math.exp(x) / 3

    def patch_error(*args, **kwargs):
        inside[0] = True
        try:
            return real_patch_error(*args, **kwargs)
        finally:
            inside[0] = False

    real_patch_error = approx.patch_error
    monkeypatch.setattr(approx, "patch_error", patch_error)
    f = BlackboxExpr(fn, zero_count=0,
                     deriv_fns=[lambda x: math.exp(x) / 3] * 6)
    A = ck_approximate(f, (F(0), F(1)), 1e-3, 0.5)
    assert len(A.patches) == 10
    only = [x for x in sampled if x not in elsewhere]
    nan_at[0] = only[len(only) // 2]
    with pytest.raises(EvaluationAtSingularity, match="non-finite"):
        ck_approximate(f, (F(0), F(1)), 1e-3, 0.5)


def test_ck_route_caps_the_patches_per_chart(monkeypatch):
    # exp(x)/3 plus a jump of 0.01 at x = 1/2 that the declared derivatives
    # miss: no patch across the jump gets within eps, so each halving refits
    # twice as many patches; the cap stops the chart after fewer than twice
    # the cap in fits instead of halving on towards r = 0
    fits = [0]

    def taylor_patch(*args, **kwargs):
        fits[0] += 1
        assert fits[0] < 2 * 1024, "runaway halving"
        return real_taylor_patch(*args, **kwargs)

    real_taylor_patch = approx.taylor_patch
    monkeypatch.setattr(approx, "taylor_patch", taylor_patch)
    f = BlackboxExpr(lambda x: math.exp(x) / 3 + (0.01 if x > 0.5 else 0.0),
                     zero_count=0, deriv_fns=[lambda x: math.exp(x) / 3] * 6)
    with pytest.raises(DegreeOverflow, match="CK_PATCH_CAP = 1024"):
        ck_approximate(f, (F(0), F(1)), 1e-3, 0.5)


@pytest.mark.parametrize("exc", [TypeError, ZeroDivisionError])
def test_value_sampling_falls_back_on_math_errors_only(exc, cheap_circles):
    # x, except that a real x in (-1/8, 1/8), inside the strip removed
    # around 0, raises exc; a math error falls back (no normalization, unit
    # box height), a programming error propagates
    def fn(x):
        if isinstance(x, float) and abs(x) < 0.125:
            raise exc("blackbox failed")
        return x
    # the exact derivatives of x, to the order the analytic route asks
    f = BlackboxExpr(fn, zero_count=0, deriv_fns=[lambda x: 1.0,
                                                  lambda x: 0.0,
                                                  lambda x: 0.0])

    def approximate():
        return analytic_approximate(f, (F(-1), F(1)), 0.25,
                                    declared_singularities=[0j], slab=True)
    if exc is TypeError:
        with pytest.raises(TypeError):
            normalize_values(f, F(-1), F(1))
        with pytest.raises(TypeError):
            approximate()
        return
    assert normalize_values(f, F(-1), F(1)) == (f, {})
    boxes = [p for p in approximate().patches if p.source == "removed-box"]
    assert len(boxes) == 2 * 4          # width 1/2 and height 1 at eps 1/4


def test_ck_route_error_and_patch_scaling():
    f = RationalExpr(Poly([0, 0, 0, 1]))      # x^3, sigma = 1/2 -> k = 3
    A1 = ck_approximate(f, (F(0), F(1)), 1e-3, 0.5)
    A2 = ck_approximate(f, (F(0), F(1)), 1e-6, 0.5)
    for A in (A1, A2):
        assert all(p.sup_error <= A.epsilon for p in A.patches)
        assert A.meta["k"] == 3
    # patch count grows like eps^(-1/k): a factor 10 per three decades
    ratio = len(A2.patches) / len(A1.patches)
    assert 4 <= ratio <= 25


def test_ck_route_charts_the_normalized_source_and_verifies():
    # 100 x^3 spans [0, 100]: charts are built for x^3 (5 of them, not one
    # per unit of the sup norm) and the stored patches approximate 100 x^3
    f = RationalExpr(Poly([0, 0, 0, 100]))
    A = ck_approximate(f, (F(0), F(1)), 1e-3, 0.5)
    assert A.meta["charts"] == 5
    assert all(p.sup_error <= A.epsilon for p in A.patches)
    assert _verify(A, f) == PASS


def test_verify_bundle_resamples_each_patch_on_its_own_interval(
        cheap_circles):
    e = F(1, 2 ** 20)
    hyp = RationalExpr(Poly([e * e]), Poly([0, 1]))
    cube = RationalExpr(Poly([0, 0, 0, 1]))
    cases = [
        (ck_approximate(cube, (F(0), F(1)), 1e-3, 0.5), cube, "chart"),
        (analytic_approximate(hyp, (e, F(1)), 2.0 ** -8,
                              declared_singularities=[0j]),
         hyp, "a-chart")]
    for A, source, tag in cases:
        assert _verify(A, source)["ok"], A.route
        # lift one patch by 2 eps at the left end of its parameter interval
        # and by at most 2^-29 eps on the right half; an analytic resample
        # over the patch's x-image (inside (0, 1]) would miss it
        p = next(p for p in A.patches if p.source.startswith(tag))
        lo, hi = ((-1.0, 1.0) if A.route == "analytic"
                  else (p.center[0] - p.side / 2, p.center[0] + p.side / 2))
        w = Poly([F(hi), -1]) * Poly.const(1 / F(hi - lo))
        p.coeffs[1] = p.coeffs[1] + Poly.const(F(2 * A.epsilon)) * w ** 30
        rep = _verify(A, source)
        i = A.patches.index(p)
        assert [m.split(":")[0] for m in rep["failures"]] == [f"patch {i}"], \
            A.route


def test_slab_patches_reverify_at_4x_sampling(cheap_circles):
    e = F(1, 2 ** 20)
    f = RationalExpr(Poly([e * e]), Poly([0, 1]))
    eps = 2.0 ** -10
    A = analytic_approximate(f, (e, F(1)), eps,
                             declared_singularities=[0j], slab=True)
    ts = np.linspace(-1.0, 1.0, 4 * PATCH_SAMPLES)
    for p in A.patches:
        if p.source == "removed-box":
            continue
        psi, poly = p.coeffs
        err = float(np.max(np.abs(f.eval_array(psi.eval_array(ts))
                                  - poly.eval_array(ts))))
        assert err <= eps * (1 + 1e-6)


def test_fit_affine_and_aic_prefer_true_model():
    xs = np.arange(1.0, 9.0)
    ys = 3.0 * xs + 1.0
    good = aic_of_fit(ys, 3.0 * xs + 1.0, 2)
    bad = aic_of_fit(ys, 2.0 * xs + 1.0, 2)
    assert good < bad


def test_log_cubic_model_beats_powers_on_slab_sweep(cheap_circles):
    e0 = F(1, 2 ** 26)
    f = RationalExpr(Poly([e0 * e0]), Poly([0, 1]))
    eps_list, cx = [], []
    for j in range(8, 21, 3):
        eps = 2.0 ** -j
        A = analytic_approximate(f, (e0, F(1)), eps,
                                 declared_singularities=[0j], slab=True)
        eps_list.append(eps)
        cx.append(A.complexity)
    out = compare_log_cubic_vs_power(eps_list, cx, [0.1, 0.3, 0.5, 1.0])
    cubic = out["cubic"]["aic"]
    for key, val in out.items():
        if key != "cubic":
            assert cubic < val["aic"], key
