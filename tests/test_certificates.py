"""Certificates fail closed: a NaN or inf measured at any order, or on any
sampled circle, makes every checker report a failure (or raise a typed
error where a bound is measured rather than checked), never a pass."""

import dataclasses
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothparam.analytic_param import verify_a_chart_variation
from smoothparam.approx import ck_approximate
from smoothparam.charts import (CK_TOLERANCE_FLOAT, Chart, SlabChart,
                                circle_sup, verify_ck_chart, verify_slab_chart)
from smoothparam.cli import main
from smoothparam.config import DEFAULT
from smoothparam.errors import EvaluationAtSingularity
from smoothparam.funcs import (BlackboxExpr, ConstExpr, MulExpr, PowExpr,
                               RationalExpr, SqrtExpr, isolate_real_zeros)
from smoothparam.poly import Poly
from smoothparam.serialize import (approximation_to_json, dumps, loads,
                                   verify_bundle)

CFG = dataclasses.replace(DEFAULT, grid_points=512, a_chart_radii=4,
                          a_chart_angles=32)
BAD = st.sampled_from([math.nan, math.inf, -math.inf])


def _poisoned(order, bad, at, depth=3):
    """Zero with all derivatives zero, except that the order-th derivative
    is `bad` at the sample point x = at."""
    def fn(i):
        return (lambda x: bad if x == at else 0.0) if i == order \
            else (lambda x: 0.0)
    return BlackboxExpr(fn(0), zero_count=0,
                        deriv_fns=[fn(i) for i in range(1, depth + 1)])


def test_roadmap_repro_fails():
    # 1/x through psi(t) = t/2: NaN at t = 0 in the order-1 derivative
    x = RationalExpr(Poly([0, 1]))
    ch = Chart(psi=Poly([0, F(1, 2)]), f_comp=MulExpr(x, PowExpr(x, -2)), k=1)
    rep = verify_ck_chart(ch)
    assert math.isnan(rep.per_order[("f", 1)])
    assert not rep.ok
    assert "('f', 1)" in rep.detail


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nonfinite_samples_fail_without_numpy_warnings():
    # the float grid max of 1/x above, and the sampled zero search on the
    # derivative of x sqrt(x), NaN at x = 0: each fails closed, and numpy
    # warns of neither
    test_roadmap_repro_fails()
    x = RationalExpr(Poly([0, 1]))
    with pytest.raises(EvaluationAtSingularity, match="NaN value of f at x"):
        isolate_real_zeros(MulExpr(x, SqrtExpr(x)).deriv(), (F(0), F(1)))


@given(order=st.integers(1, 3), bad=BAD, idx=st.integers(0, 511))
def test_ck_chart_fails_on_nonfinite(order, bad, idx):
    at = float(np.linspace(0.0, 1.0, CFG.grid_points)[idx])
    ch = Chart(psi=Poly([0, F(1, 2)]), f_comp=_poisoned(order, bad, at), k=3)
    rep = verify_ck_chart(ch, CFG)
    assert not rep.ok
    assert f"('f', {order})" in rep.detail


@given(order=st.integers(0, 3), bad=BAD, idx=st.integers(0, 511),
       upper=st.booleans())
@settings(max_examples=40)
def test_slab_chart_fails_on_nonfinite(order, bad, idx, upper):
    # a blackbox makes the slab a float one, sampled on the graphs' grid
    xs = np.linspace(0.0, 1.0, CFG.grid_points)
    poisoned = _poisoned(order, bad, float(xs[idx]))
    g1, g2 = (ConstExpr(0), poisoned) if upper else (poisoned, ConstExpr(0))
    rep = verify_slab_chart(SlabChart(x_map=Poly([0, F(1, 2)]), G1=g1, G2=g2,
                                      k=3), CFG)
    assert not rep.ok
    assert "non-finite" in rep.detail


def test_slab_with_a_nan_basepoint_fails():
    # sqrt(2 t - 1) is NaN at t = 0, where the slab's basepoint y is read
    slab = SlabChart(x_map=Poly([0, F(1, 2)]), G1=SqrtExpr(RationalExpr(
        Poly([-1, 2]))), G2=RationalExpr(Poly([2])), k=1)
    with np.errstate(invalid="ignore"):
        rep = verify_slab_chart(slab, CFG)
    assert not rep.ok and rep.detail == "non-finite value at order ('y', 0)"


_TINY_POLE = RationalExpr(Poly([F(1, 10**9)]), Poly([0, 1]))   # 1e-9/t


@pytest.mark.parametrize("check", [
    lambda: verify_ck_chart(Chart(psi=Poly([0, 1]), f_comp=_TINY_POLE, k=1)),
    lambda: verify_slab_chart(SlabChart(x_map=Poly([0, 1]), G1=RationalExpr(
        Poly([0])), G2=_TINY_POLE, k=1)),
    # the pole at the grid point 1/2, inside the slab
    lambda: verify_slab_chart(SlabChart(x_map=Poly([0, 1]), G1=RationalExpr(
        Poly([0])), G2=RationalExpr(Poly([F(1, 10**9)]), Poly([F(-1, 2), 1])),
        k=1)),
])
def test_exact_chart_with_a_pole_on_the_grid_fails(check):
    # the exact grid max skips a point where den vanishes; the check must
    # read it as inf, as a float grid does, not pass on the points beside it
    rep = check()
    assert rep.mode == "exact" and not rep.ok
    assert rep.detail.startswith("non-finite value at order")


def test_exact_slab_with_a_pole_at_its_basepoint_fails():
    # -1e-9/t has its pole at t = 0, where the slab's basepoint y is read
    slab = SlabChart(x_map=Poly([0, F(1, 2)]), G1=RationalExpr(
        Poly([F(-1, 10**9)]), Poly([0, 1])), G2=RationalExpr(Poly([2])), k=1)
    rep = verify_slab_chart(slab, CFG)
    assert rep.mode == "exact" and not rep.ok
    assert rep.detail == "non-finite value at order ('y', 0)"


def _poisoned_circle(bad, radius):
    """Zero on the disk except on the circle of the given radius."""
    return BlackboxExpr(
        lambda z: complex(bad) if abs(abs(z) - radius) < 1e-9 else 0j,
        zero_count=0)


@given(bad=BAD, j=st.integers(1, 4))
def test_a_chart_and_circle_bounds_fail_on_nonfinite(bad, j):
    f = _poisoned_circle(bad, 2.0 * j / CFG.a_chart_radii)
    with pytest.raises(EvaluationAtSingularity):
        circle_sup(f.eval_array, 0j, 2.0, CFG)
    ch = Chart(psi=Poly([0, 1]), f_comp=f, k=0)
    with pytest.raises(EvaluationAtSingularity):
        verify_a_chart_variation(ch, CFG)


def test_a_chart_with_a_pole_on_a_circle_fails():
    # 1/(z - 1): the circle of radius 1 about 0 passes through the pole at
    # z = 1, on the disk and on the chart's variation disk of radius 2
    f = RationalExpr(Poly([1]), Poly([-1, 1]))
    with np.errstate(all="ignore"):
        with pytest.raises(EvaluationAtSingularity, match="radius 1.0 about"):
            circle_sup(f.eval_array, 0j, 1.0, CFG)
        with pytest.raises(EvaluationAtSingularity, match="radius 1.0 about"):
            verify_a_chart_variation(Chart(psi=Poly([0, 1]), f_comp=f, k=0),
                                     CFG)


def test_stored_nan_bound_fails_verification(tmp_path, capsys):
    out = tmp_path / "ck.json"
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    key = next(iter(doc["charts"][1]["bounds"]))
    doc["charts"][1]["bounds"][key] = math.nan
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    assert "chart 1" in capsys.readouterr().err


def test_reports_name_the_grid_they_sampled():
    # 1/(2 + t) on [0, 1] is rational, so its chart is checked exactly;
    # sqrt(2 + t) is not, so its chart is checked in floats; a slab is exact
    # when both its graphs are rational
    ch = Chart(psi=Poly([0, 1]), f_comp=RationalExpr(Poly([1]), Poly([2, 1])),
               k=2)
    exact = verify_ck_chart(ch, CFG)
    n = CFG.exact_grid_points
    assert exact.ok and exact.mode == "exact"
    assert exact.detail == f"exact at the {n + 1} points i/{n}"
    ch = Chart(psi=Poly([0, 1]), f_comp=SqrtExpr(RationalExpr(Poly([2, 1]))),
               k=2)
    flt = verify_ck_chart(ch, CFG)
    assert flt.ok and flt.mode == "float"
    assert flt.detail == (f"float at {CFG.grid_points} points, "
                          f"tolerance {CK_TOLERANCE_FLOAT}")
    slab = SlabChart(x_map=Poly([0, F(1, 2)]), G1=RationalExpr(Poly([0])),
                     G2=RationalExpr(Poly([F(1, 2)])), k=1)
    rep = verify_slab_chart(slab, CFG)
    assert rep.ok and rep.mode == "exact"
    assert rep.detail == f"exact at the {n + 1} points i/{n}"
    slab.G2 = SqrtExpr(RationalExpr(Poly([F(1, 4), F(1, 8)])))
    rep = verify_slab_chart(slab, CFG)
    assert rep.ok and rep.mode == "float"
    assert rep.detail == (f"float at {CFG.grid_points} points, "
                          f"tolerance {CK_TOLERANCE_FLOAT}")


def _nan_verdict(doc, path, key):
    """verify_bundle's verdict on the artifact `doc` with the value at
    doc[path...][key] replaced by NaN, after a JSON round trip."""
    doc = loads(dumps(doc))
    node = doc
    for step in path:
        node = node[step]
    node[key] = math.nan
    return verify_bundle(loads(json.dumps(doc)))


@pytest.mark.parametrize("key, message", [
    ("sup_error", "patch 0: stored error nan"),
    # a NaN side makes the patch's resampling interval, so its error, NaN
    ("side", "patch 0: resampled error nan")])
def test_nan_in_an_approximation_fails_verification(key, message):
    f = RationalExpr(Poly([1]), Poly([2, 1]))
    doc = approximation_to_json(ck_approximate(f, (F(0), F(1)), 0.01, 0.5),
                                source=f)
    assert verify_bundle(loads(dumps(doc)))["ok"]
    res = _nan_verdict(doc, ["patches", 0], key)
    assert not res["ok"]
    assert any(m.startswith(message) for m in res["failures"])


def test_nan_norming_constant_fails_verification(tmp_path):
    out = tmp_path / "remez.json"
    assert main(["remez", "--classical", "--samples", "50",
                 "--out", str(out)]) == 0
    res = _nan_verdict(json.loads(out.read_text()), [], "R")
    assert not res["ok"]
    assert res["failures"] == ["norming constant nan below 1"]


@pytest.mark.parametrize("key, value", [("R", 1e6), ("y_star", [0.5, 0.0]),
                                        ("Q_star", [1.0] * 6),
                                        ("monomials", [[0, 0]])])
def test_remez_witness_is_rechecked(tmp_path, key, value):
    # R = 17.007 at y* = (1, 0); a changed R, y*, Q* or monomial list no
    # longer agrees with Q*(y*) = R
    out = tmp_path / "remez.json"
    assert main(["remez", "--classical", "--samples", "50",
                 "--out", str(out)]) == 0
    doc = loads(out.read_text())
    assert verify_bundle(doc)["ok"]
    doc[key] = value
    res = verify_bundle(loads(json.dumps(doc)))
    assert not res["ok"]
    assert res["failures"][0].startswith("witness Q*(y*) = ")


def test_entropy_monotonicity_is_rechecked(tmp_path, capsys):
    # the n=4 row keeps M_lower <= M_upper but falls below the n=3 row
    out = tmp_path / "entropy.json"
    assert main(["entropy", "--system", "doubling", "--n-max", "4",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    row, = (r for r in doc["rows"] if r["n"] == 4 and r["eps"] == 0.1)
    row.update(M_lower=0, M_upper=9)
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    assert capsys.readouterr().err == (
        "FAIL: M_lower decreased in n at eps=0.1: n=3->4\n"
        "FAIL: M_upper decreased in n at eps=0.1: n=3->4\n")
    doc["rows"].remove(row)         # a missing cell is a typed error
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: PreconditionFailed: no row at n=4, eps=0.1\n"
