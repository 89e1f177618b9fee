"""End-to-end acceptance suite.  Each test prints a single PASS/FAIL line;
tolerances and runtime budgets are part of the assertions."""

import hashlib
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from smoothparam.analytic_param import (dyadic_partition,
                                        hyperbola_analytic_charts)
from smoothparam.approx import (PATCH_SAMPLES, analytic_approximate,
                               compare_log_cubic_vs_power)
from smoothparam.bivar import BivarPoly
from smoothparam.bp import (bp_for_degree, brute_force_points,
                            enumerate_points, hypersurface_cover,
                            vandermonde_bound_check)
from smoothparam.charts import verify_ck_chart
from smoothparam.ck_param import hyperbola_parametrization, kill_derivative_step
from smoothparam.entropy import (doubling_system, entropy_sweep,
                                 identity_system, polynomial_system,
                                 toral_system)
from smoothparam.funcs import MulExpr, RationalExpr, SqrtExpr
from smoothparam.poly import Poly
from smoothparam.remez import (curve_gradient_floor, empirical_remez_constant,
                               hyperbola_curve, hyperbola_remez_query,
                               normalize_curve, remez_parametrization)
from smoothparam.serialize import dumps, entropy_report_to_json

# sha256 of the acceptance-10 entropy sweeps (JSON artifact, CSV) as first
# emitted by the restart-per-n covering numbers
ENTROPY_SHA256 = {
    "identity": (
        "61799c3c4c4d666e312abb6458bd6b6d49a5832dc994feb1f3d95f0979b1cef3",
        "920826693b50364a9c2eae06e562b0654001b2dd5025086bf8fb459bb9123da8"),
    "doubling": (
        "573d591d8e37ad28ebe01cef44f5089e47d86e902ef9f252f4e0a5dc277700a5",
        "7aeb7f1bf54be32fdedf2194a3c1c5435f92ba94dfb82bc72c3542e946d5d0a8"),
    # the benchmark's ranges, pinned before the toral screen and the carried
    # grid balls
    "toral": (
        "351c009f6a03fa276a1d65b091f2012ae2efeb6545a82e23fbcc360f90788021",
        "167ea47f49e6c0b4d12194b6b7cd6645443b78480235af1da079f98c207ac1f9"),
    "polynomial": (
        "fa9176ae15c64e5a3f637e92702b52950cfa435aab88b0183ace0fe1303b2d54",
        "d4629f294aa59ad48b32f49322d73d315fcc4e31f59ec9a17b49d921f1d34708"),
}


def _report(num, label):
    def wrap(fn):
        def run():
            try:
                fn()
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL — {label}")
                raise
            print(f"\nACCEPTANCE {num}: PASS — {label}")
        run.__name__ = fn.__name__
        return run
    return wrap


@_report(1, "hyperbola golden test: kill-step bound 4, certificates at 1")
def test_acceptance_01_hyperbola_golden():
    t0 = time.perf_counter()
    e = F(1, 100)
    # right half eps^2/x pulled to [0, 1]; the square substitution must give
    # a second derivative bounded by 4
    g = RationalExpr(Poly([e * e]), Poly([0, 1])).precompose_poly(
        Poly.affine(1 - e, e))
    _, _, bound, noop = kill_derivative_step(g, 2)
    assert not noop and bound <= 4.0 + 1e-9
    P = hyperbola_parametrization(e, k=2)
    assert P.chart_count == 4
    for ch in P.charts:
        rep = verify_ck_chart(ch)
        assert rep.ok and rep.mode == "exact"
        assert rep.max_bound <= 1 + 1e-9
    assert time.perf_counter() - t0 < 5.0


@_report(2, "chart count exactly constant over eps = 1e-1 .. 1e-6")
def test_acceptance_02_uniformity_in_eps():
    counts = [hyperbola_parametrization(F(1, 10 ** j), k=2).chart_count
              for j in range(1, 7)]
    assert len(set(counts)) == 1


@_report(3, "200 random partitions: 3x-distance invariant and log budget")
def test_acceptance_03_partition_suite():
    t0 = time.perf_counter()
    rng = random.Random(101)
    violations = 0
    for _ in range(200):
        m = rng.randint(1, 5)
        sings = [complex(rng.uniform(-1, 1), 0) for _ in range(m)]
        delta = F(1, 2 ** rng.randint(4, 20))
        part = dyadic_partition((F(-1), F(1)), sings, delta)
        worst, count, budget = part.check_invariants()
        if worst < 3 - 1e-6 or count > budget:
            violations += 1
    assert violations == 0
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.usefixtures("cheap_circles")
@_report(4, "analytic chart count affine in log2(1/delta), R^2 >= 0.99")
def test_acceptance_04_chart_law():
    e = F(1, 2 ** 26)
    xs, ys = [], []
    for j in range(4, 21):
        P = hyperbola_analytic_charts(e, F(1, 2 ** j))
        xs.append(float(j))
        ys.append(float(P.chart_count))
    xs, ys = np.array(xs), np.array(ys)
    slope, icpt = np.polyfit(xs, ys, 1)
    pred = slope * xs + icpt
    r2 = 1 - float(np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2))
    assert r2 >= 0.99 and slope > 0


@_report(5, "1000 interpolation-determinant trials, zero violations")
def test_acceptance_05_determinant_bound():
    t0 = time.perf_counter()
    rng = random.Random(103)
    violations = 0
    for trial in range(1000):
        n = 1 if trial % 3 else 2
        m = rng.randint(2, 6)
        r = rng.uniform(1e-3, 1e-1)
        if n == 1:
            phi = [RationalExpr(Poly([F(rng.randint(-3, 3))
                                      for _ in range(rng.randint(1, 5))]))
                   for _ in range(m)]
            c = rng.uniform(-1 + r, 1 - r)
            pts = [c + rng.uniform(-r, r) for _ in range(m)]
        else:
            phi = [BivarPoly({(rng.randint(0, 2), rng.randint(0, 2)):
                              F(rng.randint(-3, 3)) for _ in range(5)})
                   for _ in range(m)]
            pts = [(rng.uniform(-r, r), rng.uniform(-r, r)) for _ in range(m)]
        if not vandermonde_bound_check(phi, pts, r, n=n)["pass"]:
            violations += 1
    assert violations == 0
    assert time.perf_counter() - t0 < 60.0


@_report(6, "cubic cover: rank tests pass, few hypersurfaces, exponents decrease")
def test_acceptance_06_hypersurface_cover():
    f = RationalExpr(Poly([0, 0, 0, 1]))
    for t in (10, 50, 100):
        cov = hypersurface_cover(f, (F(-1), F(1)), t, 2)
        assert all(v["pass"] for v in cov["per_ball"].values())
        assert cov["hypersurface_count"] <= math.ceil(1.0 / cov["rtil"])
    exps = [bp_for_degree(1, 2, d).epsilon_exponent("as_printed")
            for d in range(1, 7)]
    assert all(a > b for a, b in zip(exps, exps[1:]))


@_report(7, "enumerate_points equals brute force for all curves, t <= 200")
def test_acceptance_07_point_oracle():
    x = RationalExpr(Poly([0, 1]))
    curves = [RationalExpr(Poly([0, 0, 1])),
              RationalExpr(Poly([0, 0, 0, 1])),
              RationalExpr(Poly([1, 0, -1]), Poly([2, 0, 1])),
              MulExpr(x, SqrtExpr(x))]
    domains = [(F(-1), F(1)), (F(-1), F(1)), (F(-1), F(1)), (F(0), F(1))]
    for f, dom in zip(curves, domains):
        for t in range(1, 201):
            assert set(enumerate_points(f, dom, t)) == \
                set(brute_force_points(f, dom, t))


@_report(8, "norming: classical constant 17, hyperbola 1/eps, chart law in rho")
def test_acceptance_08_remez():
    Y = [(float(v), 0.0) for v in np.linspace(-1, 1, 400)]
    Z = [(float(v), 0.0) for v in np.linspace(-1, 0, 400)]
    rep = empirical_remez_constant(Y, Z, 2)
    assert abs(rep.R - 17) <= 0.01 * 17
    for eps in (0.1, 0.01):
        Ye, Ze = hyperbola_remez_query(eps, 400)
        # witness Q = y/eps certifies the lower bound independently of the LP
        assert max(y for _, y in Ye) / eps >= 1.0 / eps - 1e-9
        assert empirical_remez_constant(Ye, Ze, 2).R >= 1.0 / eps
    xs, ys = [], []
    for j in range(3, 13):
        res = remez_parametrization(hyperbola_curve(2.0 ** -j))
        xs.append(math.log2(1.0 / res["rho"]))
        ys.append(float(res["N"]))
    xs, ys = np.array(xs), np.array(ys)
    slope, icpt = np.polyfit(xs, ys, 1)
    pred = slope * xs + icpt
    r2 = 1 - float(np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2))
    assert r2 >= 0.98


@pytest.mark.usefixtures("cheap_circles")
@_report(9, "complexity is log-cubic, not any power law; patches re-verify")
def test_acceptance_09_approximation_scaling():
    e0 = F(1, 2 ** 26)
    f = RationalExpr(Poly([e0 * e0]), Poly([0, 1]))
    eps_list, cx, approxs = [], [], []
    for j in range(8, 25, 2):
        eps = 2.0 ** -j
        A = analytic_approximate(f, (e0, F(1)), eps,
                                 declared_singularities=[0j], slab=True)
        eps_list.append(eps)
        cx.append(A.complexity)
        approxs.append(A)
    sigmas = [round(0.1 + 0.1 * i, 2) for i in range(10)]
    out = compare_log_cubic_vs_power(eps_list, cx, sigmas)
    for key, val in out.items():
        if key != "cubic":
            assert out["cubic"]["aic"] < val["aic"], key
    # every patch re-verifies its error at 4x sampling
    ts = np.linspace(-1.0, 1.0, 4 * PATCH_SAMPLES)
    for A in approxs:
        for p in A.patches:
            if p.source == "removed-box":
                assert p.sup_error <= A.epsilon * (1 + 1e-12)
                continue
            psi, poly = p.coeffs
            err = float(np.max(np.abs(f.eval_array(psi.eval_array(ts))
                                      - poly.eval_array(ts))))
            assert err <= A.epsilon * (1 + 1e-6)


@_report(10, "entropy: identity flat, doubling slope ~1 bit, monotone sweeps")
def test_acceptance_10_entropy():
    t0 = time.perf_counter()
    rep_id = entropy_sweep(identity_system(), list(range(1, 13)), [0.1, 0.05])
    assert rep_id.check_invariants() == []
    for row in rep_id.rows:
        assert row["h"] <= 0.01
    rep_db = entropy_sweep(doubling_system(), list(range(1, 15)), [0.02, 0.01])
    assert rep_db.check_invariants() == []
    for slope in rep_db.h_estimates.values():
        assert 0.8 <= slope <= 1.2
    for rep in (rep_id, rep_db):
        digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in
                        (dumps(entropy_report_to_json(rep)), rep.to_csv()))
        assert digests == ENTROPY_SHA256[rep.system]
    assert time.perf_counter() - t0 < 120.0


@pytest.mark.parametrize("system, ns, eps_values", [
    (toral_system, range(1, 9), [1 / 10, 1 / 20]),
    (polynomial_system, range(1, 5), [1 / 10]),
])
def test_entropy_sweeps_of_the_benchmark_ranges_are_pinned(system, ns,
                                                           eps_values):
    rep = entropy_sweep(system(), list(ns), eps_values)
    assert rep.check_invariants() == []
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in
                    (dumps(entropy_report_to_json(rep)), rep.to_csv()))
    assert digests == ENTROPY_SHA256[rep.system]
