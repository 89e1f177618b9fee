"""Command-line pipelines and JSON artifacts: exit codes, byte-determinism,
round-trips, fault injection, and config resolution."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothparam import cli
from smoothparam.charts import Chart
from smoothparam.ck_param import CkParametrization, hyperbola_parametrization
from smoothparam.cli import main
from smoothparam.funcs import normalize_values
from smoothparam.poly import Poly
from smoothparam.serialize import (dumps, expr_from_json, loads,
                                   number_to_json, parametrization_to_json)

# sha256 of `parametrize-ck --eps 1/100` (k=2) as first emitted, with order
# 0 of f in every chart's bounds; a change to chart construction or
# certification that moves a byte shows up here
CK2_ARTIFACT_SHA256 = \
    "11b0014d72850a37e5ee60bfb7c5e0966df0d6185d7acdcc70ddb95750a49cbe"
# sha256 of `parametrize-ck --k 3 --eps 100/570`; a derivative there has a
# root at an end of [0, 1], so this also pins how isolation steps past it
CK3_ARTIFACT_SHA256 = \
    "a6ca276e7ce250425976681921576334ae7dfe799286b704f8ceb5f7feb99682"
# sha256 of analytic-route artifacts (disk bounds sampled on complex circles),
# with each cover step's length the float cap itself, so chart ends are
# dyadic rather than rounded to denominators below 2^40
ANALYTIC_ARTIFACT_SHA256 = {
    (): "ab5733eabe3142e1fcab85be270f75abe256f3e0caa3f3b59f9cc16a0fcf1295",
    ("--eps", "1/100000", "--delta", "1/2048"):
        "cdea90fc9b30729cfce83b8fff13e8579d62f37d98eebdc76ab5be7e2d9c1963",
}
# sha256 of `count-points --t 60 --csv` on the cube (no spec), on
# (1 - x^2)/(2 + x^2) over [-1, 1] and on x sqrt(x) over [0, 1]
COUNT_CSV_SHA256 = {
    None: "27606fd866ac172b91fd90cc013dfc655ee1eefde014c5d443a2e166277fa454",
    "ratio":
        "57e0780233bffc5e52b3beca1beed123f6b70761c5047dcb2909f142e20ed760",
    "xsqrtx":
        "32b29de4ecc658219c601bb9cb96f0eea9813086c53d70f24df7093bb7e66a33",
}
APPROX_ARTIFACT_SHA256 = {
    (): "0cfaf9771a9d07cb8aeb8e6846e3102147b45fb7270738d3199193b64e09457c",
    ("--slab",):
        "3d748496d28b4d396f0510ea192e10b590e22c1523f4e9e6530f5509fa12a93b",
}


def test_parametrize_ck_golden_artifact(tmp_path):
    out = tmp_path / "ck.json"
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "ck-parametrization"
    assert doc["k"] == 2
    assert len(doc["charts"]) == 4
    for ch in doc["charts"]:
        for val in ch["bounds"].values():
            assert val <= 1 + 1e-9


def test_artifacts_are_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["parametrize-ck", "--out", str(a)]) == 0
    assert main(["parametrize-ck", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parametrize_ck_artifact_is_pinned(tmp_path):
    out = tmp_path / "ck.json"
    assert main(["parametrize-ck", "--eps", "1/100", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CK2_ARTIFACT_SHA256


def test_parametrize_ck_k3_artifact_is_pinned(tmp_path, capsys):
    out = tmp_path / "ck3.json"
    assert main(["parametrize-ck", "--k", "3", "--eps", "100/570",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CK3_ARTIFACT_SHA256
    capsys.readouterr()
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == "pass\n"


@pytest.mark.parametrize("flags", list(ANALYTIC_ARTIFACT_SHA256))
def test_parametrize_analytic_artifact_is_pinned(tmp_path, flags):
    out = tmp_path / "an.json"
    assert main(["parametrize-analytic", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        ANALYTIC_ARTIFACT_SHA256[flags]


@pytest.mark.parametrize("flags", list(APPROX_ARTIFACT_SHA256))
def test_approximate_artifact_is_pinned(tmp_path, flags):
    out = tmp_path / "approx.json"
    assert main(["approximate", "--eps", "0.0009765625", *flags,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        APPROX_ARTIFACT_SHA256[flags]


def test_parametrize_ck_spec_eps_reaches_the_artifact(tmp_path):
    spec, out = tmp_path / "spec.json", tmp_path / "ck.json"
    spec.write_text(json.dumps({"builtin": "hyperbola", "eps": "1/1000"}))
    assert main(["parametrize-ck", "--spec", str(spec), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["eps"] == "1/1000"
    want = hyperbola_parametrization(Fraction(1, 1000)).charts[0].image
    assert doc["charts"][0]["image"] == [number_to_json(v) for v in want]
    assert doc["charts"][0]["image"] != ["-103/400", "-1/1"]   # eps = 1/100


def test_roundtrip_idempotent(tmp_path):
    out = tmp_path / "an.json"
    assert main(["parametrize-analytic", "--out", str(out)]) == 0
    text = out.read_text()
    assert dumps(loads(text)) == text


def _const_spelled(node):
    """node with every degree-0 rational expression spelled as a "const"
    node, as artifacts spelled constants before constants became
    degree-0 rationals."""
    if isinstance(node, list):
        return [_const_spelled(v) for v in node]
    if not isinstance(node, dict):
        return node
    if node.get("kind") == "rational" and len(node["num"]) <= 1 \
            and node["den"] in (["1"], ["1/1"]):
        return {"kind": "const", "value": (node["num"] or ["0"])[0]}
    return {key: _const_spelled(v) for key, v in node.items()}


def test_a_const_spec_node_loads_as_a_degree_0_rational(tmp_path, capsys):
    # specs come from outside the program, so a "const" node still loads,
    # as the rational 3/2 over 1; the artifacts spell no constant as
    # "const", and the same artifacts with their constants spelled so verify
    assert expr_from_json({"kind": "const", "value": "3/2"}).as_rational() \
        == (Poly([Fraction(3, 2)]), Poly([1]))
    root = {"kind": "sqrt", "inner": {
        "kind": "rational", "num": ["2", "0", "1"], "den": ["3", "1"]}}
    spec, out, old = (tmp_path / n for n in ("s.json", "a.json", "old.json"))
    spec.write_text(json.dumps({
        "function": {"kind": "add",
                     "terms": [{"kind": "const", "value": "3/2"}, root]},
        "interval": ["0", "1"],
        "declared_singularities": [-3, [0, 2 ** 0.5], [0, -2 ** 0.5]]}))
    for argv in (["parametrize-ck", "--k", "2"], ["parametrize-analytic"],
                 ["approximate", "--eps", "0.0625"]):
        assert main(argv + ["--spec", str(spec), "--out", str(out)]) == 0
        assert '"const"' not in out.read_text()
        old.write_text(dumps(_const_spelled(json.loads(out.read_text()))))
        assert '"const"' in old.read_text()
        assert main(["verify", str(old)]) == 0
    assert capsys.readouterr().out == "pass\n" * 3


def test_verify_detects_injected_fault(tmp_path, capsys):
    out = tmp_path / "ck.json"
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    key = next(iter(doc["charts"][0]["bounds"]))
    doc["charts"][0]["bounds"][key] = 2.0
    out.write_text(json.dumps(doc))
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "chart 0" in err


def test_verify_passes_clean_artifact(tmp_path, capsys):
    out = tmp_path / "ck.json"
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    assert "pass" in capsys.readouterr().out


# x^(-1) on [-1, 1]: at k = 0 the only unbounded coordinate is f itself
_INV_SPEC = {"function": {"kind": "pow", "n": -1, "f": {
    "kind": "rational", "num": ["0", "1"], "den": ["1"]}},
    "interval": ["-1", "1"]}


def test_k0_build_of_an_unbounded_f_fails_at_order_0(tmp_path, capsys):
    spec, out = tmp_path / "inv.json", tmp_path / "a.json"
    spec.write_text(json.dumps(_INV_SPEC))
    assert main(["parametrize-ck", "--k", "0", "--spec", str(spec),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: BoundViolationAfterMaxDepth")
    assert err.rstrip().endswith("the worst ('f', 0) = inf")
    assert not out.exists()


def test_k0_charts_stored_without_order_0_of_f_fail_verify(tmp_path, capsys):
    # the two charts of that build as written when order 0 of f went
    # unmeasured: split at the pole, with the one bound ('psi', 0) = 1
    f, norm = normalize_values(expr_from_json(_INV_SPEC["function"]),
                               Fraction(-1), Fraction(1))
    charts = [Chart(psi=Poly([a, 1]), f_comp=f.precompose_poly(Poly([a, 1])),
                    k=0, bounds={("psi", 0): 1.0}, meta={"split": 2})
              for a in (-1, 0)]
    out = tmp_path / "old.json"
    out.write_text(dumps(parametrization_to_json(CkParametrization(
        charts, 0, (Fraction(-1), Fraction(1)), norm), "ck")))
    assert main(["verify", str(out)]) == 2
    err = capsys.readouterr().err
    assert "chart 0: re-verification failed (max bound inf)" in err
    assert "chart 1: re-verification failed (max bound inf)" in err


def test_an_artifact_without_order_0_of_f_still_verifies(tmp_path, capsys):
    # the schema did not move when ('f', 0) joined the bounds: an artifact
    # stored without it loads, and verify measures every order itself
    out = tmp_path / "ck.json"
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    for chart in doc["charts"]:
        del chart["bounds"]["('f', 0)"]
    out.write_text(dumps(doc))
    assert main(["verify", str(out)]) == 0
    assert capsys.readouterr().out == "pass\n"


def test_schema_mismatch_is_an_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "smoothparam@0", "kind": "remez"}))
    assert main(["verify", str(bad)]) == 1


def test_unknown_config_key_rejected(tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"parametrize-ck": {"bogus": 1}}))
    rc = main(["--config", str(conf), "parametrize-ck",
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    assert "bogus" in capsys.readouterr().err


def test_config_defaults_and_flag_precedence(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"parametrize-ck": {"k": 3}}))
    out = tmp_path / "a.json"
    assert main(["--config", str(conf), "parametrize-ck",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 3
    # an explicit flag beats the config file
    assert main(["--config", str(conf), "parametrize-ck", "--k", "2",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 2


def test_config_values_parse_like_their_flags(tmp_path):
    # a config value goes through its flag's type: "3" is the int 3, as
    # --k 3 would be, and the number 0.01 is read as --eps 0.01 is, 1/100
    conf, out = tmp_path / "conf.json", tmp_path / "a.json"
    conf.write_text(json.dumps({"parametrize-ck": {"k": "3", "eps": 0.01}}))
    assert main(["--config", str(conf), "parametrize-ck",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 3 and doc["meta"]["eps"] == "1/100"
    # an explicit flag wins in every spelling argparse takes
    for flag in (["--k", "2"], ["--k=2"]):
        assert main(["--config", str(conf), "parametrize-ck", *flag,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["k"] == 2
    conf.write_text(json.dumps({"entropy": {"n-max": 3}}))
    assert main(["--config", str(conf), "entropy", "--n-ma", "2",
                 "--eps-list", "1/10", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["n_values"] == [1, 2]


def test_entropy_cli_identity(tmp_path):
    out, csv = tmp_path / "e.json", tmp_path / "e.csv"
    assert main(["entropy", "--system", "identity", "--n-max", "8",
                 "--eps-list", "1/10", "--csv", str(csv),
                 "--out", str(out)]) == 0
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "n,eps,M_lower,M_upper,h"
    assert len(lines) == 9
    doc = json.loads(out.read_text())
    for slope in doc["h_estimates"].values():
        assert abs(slope) <= 0.01


def test_entropy_cli_unknown_system(tmp_path):
    assert main(["entropy", "--system", "nope"]) == 1


def test_entropy_cli_upper_bracket_never_falls(tmp_path):
    # the greedy cover of the polynomial map takes 114 balls at n = 1 and
    # 113 at n = 2 for eps = 1/5, and the sweep exited 2; a d_2 cover is
    # also a d_1 cover, so M_upper(1) is 113
    csv = tmp_path / "e.csv"
    assert main(["entropy", "--system", "polynomial", "--eps-list",
                 "1/5,1/8", "--n-max", "3", "--csv", str(csv)]) == 0
    rows = [r.split(",") for r in csv.read_text().strip().split("\n")[1:]]
    for eps in ("0.2", "0.125"):
        col = [int(r[3]) for r in rows if r[1] == eps]
        assert len(col) == 3 and col == sorted(col)
    assert [r[3] for r in rows if r[1] == "0.2"][:2] == ["113", "113"]


@pytest.mark.parametrize("argv, named", [
    (["entropy", "--n-max", "0"], "n_values"),
    (["entropy", "--n-min", "5", "--n-max", "3"], "n_values"),
    (["entropy", "--n-min", "-1", "--n-max", "2"], "n_values"),
    (["entropy", "--eps-list", "0"], "eps_values"),
    (["entropy", "--eps-list=-1/10"], "eps_values"),
    (["remez", "--eps", "0"], "eps"),
    (["remez", "--eps=-1/10"], "eps"),
])
def test_bad_entropy_and_remez_inputs_are_typed_errors(argv, named, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PreconditionFailed: ")
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("argv, named", [
    (["count-points", "--t", "0"], "t must be"),
    (["count-points", "--t", "-3"], "t must be"),
    (["count-points", "--t", "10", "--d", "-1"], "d must be"),
    (["approximate", "--eps", "0"], "eps"),
    (["remez", "--classical", "--samples", "0"], "samples must be"),
    (["approximate", "--route", "ck", "--sigma", "0"], "sigma"),
    (["approximate", "--route", "ck", "--sigma", "-1", "--eps", "0.1"], "sigma"),
    (["approximate", "--route", "ck", "--sigma", "nan"], "sigma"),
    (["remez", "--samples", "-1"], "n_samples must be"),
    (["remez", "--classical", "--samples", "-1"], "samples must be"),
    (["remez", "--classical", "--d1", "-1"], "d1 must be"),
    (["parametrize-ck", "--k", "-1"], "k must be"),
    (["parametrize-ck", "--eps", "2"], "eps must be in (0, 1)"),
    (["parametrize-ck", "--eps", "1"], "eps must be in (0, 1)"),
    (["parametrize-analytic", "--eps", "2"], "eps must be in (0, 1)"),
    (["remez", "--eps", "2", "--samples", "50"], "eps must be in (0, 1)"),
    (["remez", "--eps", "1", "--samples", "50"], "eps must be in (0, 1)"),
    (["count-points", "--t", "10", "--d", "100"], "between 1 and 16"),
    (["parametrize-analytic", "--delta", "0"], "delta must lie in (0, 1)"),
    (["parametrize-analytic", "--delta", "2"], "delta must lie in (0, 1)"),
    (["remez", "--classical", "--mu", "-1"], "mu must lie in (0, 2]"),
    (["remez", "--classical", "--mu", "0"], "mu must lie in (0, 2]"),
    (["remez", "--classical", "--mu", "3"], "mu must lie in (0, 2]"),
    (["remez", "--classical", "--mu", "nan"], "mu must lie in (0, 2]"),
    (["remez", "--classical", "--mu", "inf"], "mu must lie in (0, 2]"),
    (["count-points", "--t", "2000001"], "ENUMERATE_CAP"),
    (["remez", "--eps", "1e400"], "'1e400' is outside the float range"),
    (["entropy", "--eps-list", "1/10,1e400"], "outside the float range"),
    (["approximate", "--curve-eps", "1e400"], "outside the float range"),
    (["entropy", "--n-max", "99999999999999999999"], "n_values"),
    (["entropy", "--n-min", "-99999999999999999999"], "n_values"),
    (["remez", "--parametrize", "--eps", "1e-300"], "underflows"),
    (["remez", "--d1", "99999999999999999999", "--samples", "50"],
     "more than the 50 Z samples"),
    (["remez", "--classical", "--d1", "9", "--samples", "54"],
     "55 monomials, more than the 54 Z samples"),
    (["count-points", "--t", "3000"], "ENUMERATE_CAP"),      # the CSV sweep
])
def test_bad_count_approximate_and_remez_inputs_are_typed_errors(
        argv, named, tmp_path, capsys):
    out, csv = tmp_path / "a.json", tmp_path / "a.csv"
    extra = ["--csv", str(csv)] if argv[0] == "count-points" else []
    assert main(argv + extra + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PreconditionFailed: ")
    assert named in err and "Traceback" not in err
    assert not out.exists() and not csv.exists()


@pytest.mark.parametrize("doc, argv", [
    ([], ["verify"]),
    ({"schema": "smoothparam@1"}, ["verify"]),
    ({"interval": ["0", "1"]}, ["parametrize-ck", "--spec"]),
    ({"function": {"kind": "rational", "num": ["1"], "den": []},
      "interval": ["0", "1"]}, ["count-points", "--spec"]),
    ({"builtin": "hyperbola", "declared_singularities": [{}]},
     ["parametrize-analytic", "--spec"]),
    ({"remez": 5}, ["remez", "--config"]),
    ({"parametrize-ck": {"k": "abc"}}, ["parametrize-ck", "--config"]),
    ({"parametrize-ck": {"k": 3.5}}, ["parametrize-ck", "--config"]),
    ({"parametrize-ck": {"k": None}}, ["parametrize-ck", "--config"]),
    ({"approximate": {"eps": "tiny"}}, ["approximate", "--config"]),
    ({"approximate": {"route": "taylor"}}, ["approximate", "--config"]),
    ({"approximate": {"slab": "yes"}}, ["approximate", "--config"]),
    ({"parametrize-ck": {"out": None}}, ["parametrize-ck", "--config"]),
    ({"parametrize-ck": {"eps": [1, 100]}}, ["parametrize-ck", "--config"]),
    ({"function": {"kind": "rational", "num": ["1"], "den": ["0", "1"]},
      "interval": ["0", "1"]}, ["parametrize-ck", "--spec"]),
    ({"function": {"kind": "rational", "num": ["1"], "den": ["0", "1"]},
      "interval": ["0", "1"]}, ["approximate", "--route", "ck", "--spec"]),
])
def test_malformed_json_documents_are_typed_errors(doc, argv, tmp_path,
                                                   capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if argv[-1] == "--config":
        argv = ["--config", str(path), argv[0]]
    else:
        argv = argv + [str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: PreconditionFailed: {path}: "), err


_X = {"kind": "rational", "num": ["0", "1"], "den": ["1"]}
_INVERSE = {"function": {"kind": "pow", "f": _X, "n": -1},
            "interval": ["-1", "1"]}
_SQRT_X = {"function": {"kind": "sqrt", "inner": _X}, "interval": ["-1", "1"]}
_SQRT_2_PLUS_X = {"function": {"kind": "sqrt", "inner": {
    "kind": "rational", "num": ["2", "1"], "den": ["1"]}}, "interval": ["0", "1"]}
_PEAK = {"function": {"kind": "rational", "num": ["1"],
                      "den": ["1/1000000", "0", "1"]}, "interval": ["-1", "1"]}
_X_SQRT_X = {"function": {"kind": "mul", "f": _X,
                          "g": {"kind": "sqrt", "inner": _X}},
             "interval": ["0", "1"]}


@pytest.mark.parametrize("doc, argv, typed, named", [
    # a pole and a negative radicand at a grid point x = a/t
    (_INVERSE, ["count-points"], "EvaluationAtSingularity",
     "0 to the power -1 at x = 0"),
    (_SQRT_X, ["count-points"], "EvaluationAtSingularity", "sqrt of -1 at x = -1"),
    # an opaque function on the analytic route without declared singularities
    (_SQRT_2_PLUS_X, ["parametrize-analytic"], "PreconditionFailed",
     "must be declared"),
    (_SQRT_2_PLUS_X, ["approximate"], "PreconditionFailed", "must be declared"),
    # a cover of more than 10^9 balls; from d = 9 on (up to 16) the sampled
    # derivative bound overflows, and the radius with it
    (_PEAK, ["count-points", "--d", "8"], "PreconditionFailed",
     "ball count above 10^9 on an interval of length 2.0: ball radius e^-"),
    (_PEAK, ["count-points", "--d", "9"], "PreconditionFailed",
     "the order-54 derivative bound M_k is not finite"),
    # the sampling stops at the first order that overflows (45 of 152)
    (_PEAK, ["count-points", "--d", "16"], "PreconditionFailed",
     "the order-152 derivative bound M_k is not finite"),
    # x sqrt(x) has f'' = 3/(4 sqrt x): its derivatives sample NaN at x = 0,
    # which a max over the samples once skipped
    (_X_SQRT_X, ["count-points", "--t", "50", "--d", "2"],
     "PreconditionFailed", "the order-5 derivative bound M_k is not finite"),
])
def test_spec_functions_a_route_cannot_take_are_typed_errors(
        doc, argv, typed, named, tmp_path, capsys):
    path, out = tmp_path / "spec.json", tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    assert main(argv + ["--spec", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    head = f"{path}: " if typed == "PreconditionFailed" else ""
    assert err.startswith(f"error: {typed}: {head}"), err
    assert named in err and "Traceback" not in err
    assert not out.exists()


def test_too_fine_circle_grid_is_a_typed_error(capsys):
    # 4 * 2^40 * 1000 circle grid points; the grid was once allocated whole
    assert main(["entropy", "--system", "doubling", "--n-max", "40",
                 "--eps-list", "1/1000"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: PreconditionFailed: circle grid G=")
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", ["4e-13", "1e-300", "5e-324"])
def test_approximate_eps_below_the_finest_delta_names_eps(eps, tmp_path,
                                                           capsys):
    # delta = eps to 40 bits is 0 here; the error named that delta, and at
    # 5e-324 log2(1/eps) overflowed first
    out = tmp_path / "a.json"
    assert main(["approximate", "--eps", eps, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: PreconditionFailed: eps must "
                                       "exceed 2^-41 on the analytic route, "
                                       f"got {float(eps)}\n")
    assert not out.exists()


def test_zero_denominator_is_an_input_error(capsys):
    assert main(["entropy", "--eps-list", "1/0"]) == 1
    assert capsys.readouterr().err == \
        "error: '1/0' has a zero denominator\n"


def test_count_points_csv_matches_oracle(tmp_path, capsys):
    x = {"kind": "rational", "num": ["0", "1"], "den": ["1"]}
    specs = {
        "ratio": {"function": {"kind": "rational", "num": ["1", "0", "-1"],
                               "den": ["2", "0", "1"]},
                  "interval": ["-1", "1"]},
        "xsqrtx": {"function": {"kind": "mul", "f": x,
                                "g": {"kind": "sqrt", "inner": x}},
                   "interval": ["0", "1"]},
        "pole": {"function": {"kind": "rational", "num": ["1"],
                              "den": ["-1", "3"]},
                 "interval": ["0", "1"]}}
    for name, doc in specs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    out, csv = tmp_path / "c.json", tmp_path / "c.csv"
    for spec, digest in COUNT_CSV_SHA256.items():
        argv = ["--spec", str(tmp_path / f"{spec}.json")] if spec else []
        assert main(["count-points", "--t", "60", *argv, "--csv", str(csv),
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in csv.read_text().strip().split("\n")[1:]]
        assert len(rows) == 60
        for t, count, brute in rows:
            assert count == brute
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == digest, spec
        doc = json.loads(out.read_text())
        assert doc["count"] == len(doc["points"])
    # 1/(3x - 1) fails at t = 3 and leaves neither file
    out.unlink()
    csv.unlink()
    capsys.readouterr()
    assert main(["count-points", "--t", "61", "--spec",
                 str(tmp_path / "pole.json"), "--csv", str(csv),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == \
        "error: EvaluationAtSingularity: pole at 1/3\n"
    assert not out.exists() and not csv.exists()


def test_remez_cli_classical(tmp_path):
    out = tmp_path / "r.json"
    assert main(["remez", "--classical", "--samples", "400",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["R"] - 17) <= 0.01 * 17


def test_approximate_cli(tmp_path):
    out = tmp_path / "a.json"
    assert main(["approximate", "--eps", "0.03125", "--slab",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "approximation"
    for p in doc["patches"]:
        assert p["sup_error"] <= doc["epsilon"] * (1 + 1e-9)


def test_analytic_approximate_reads_the_spec_singularities(tmp_path):
    # (1 - x^2)/(2 + x^2) has its poles at +-i sqrt 2, the roots of its
    # denominator; one declared at 0 cuts the cover into 14 charts
    spec, out = tmp_path / "ratio.json", tmp_path / "a.json"
    spec.write_text(json.dumps({
        "function": {"kind": "rational", "num": ["1", "0", "-1"],
                     "den": ["2", "0", "1"]},
        "interval": ["-1", "1"]}))
    argv = ["approximate", "--route", "analytic", "--eps", "0.015625",
            "--spec", str(spec), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["meta"]["charts"] == 4
    assert main(["verify", str(out)]) == 0
    # a declared singularity is read as declared
    spec.write_text(json.dumps({**json.loads(spec.read_text()),
                                "declared_singularities": [0]}))
    assert main(argv) == 0
    assert json.loads(out.read_text())["meta"]["charts"] == 14


def test_off_axis_poles_remove_no_strip(tmp_path):
    # the poles +-i sqrt 2 of (1 - x^2)/(2 + x^2) are farther than delta
    # from the real axis: the cover runs through x = 0, with no strip
    # removed there and so no removed-box patch
    spec, out = tmp_path / "ratio.json", tmp_path / "a.json"
    spec.write_text(json.dumps({
        "function": {"kind": "rational", "num": ["1", "0", "-1"],
                     "den": ["2", "0", "1"]},
        "interval": ["-1", "1"]}))
    assert main(["approximate", "--route", "analytic", "--eps", "0.015625",
                 "--spec", str(spec), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["charts"] == 4
    assert [p for p in doc["patches"] if p["source"] == "removed-box"] == []


@pytest.mark.parametrize("argv, err", [
    (["parametrize-ck"],
     "order-1 derivative unbounded on a piece (sampled sup inf)"),
    (["approximate", "--route", "ck"],
     "order-1 derivative unbounded on a piece (sampled sup inf)"),
    (["parametrize-analytic"], None),
    (["approximate", "--route", "analytic"], None),
])
def test_a_pole_on_the_spec_interval_prints_no_numpy_warning(
        argv, err, tmp_path, capsys):
    # 1/x on [0, 1]: the sampled values are inf at 0, which the build
    # reports as a typed error or leaves out; numpy's RuntimeWarning is noise
    spec, out = tmp_path / "inv.json", tmp_path / "o.json"
    spec.write_text(json.dumps({
        "function": {"kind": "rational", "num": ["1"], "den": ["0", "1"]},
        "interval": ["0", "1"]}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv + ["--spec", str(spec), "--out", str(out)])
    assert [str(w.message) for w in caught] == []
    assert rc == (1 if err else 0)
    assert capsys.readouterr().err == (
        f"error: PreconditionFailed: {spec}: {err}\n" if err else "")


def test_verify_resamples_slab_patches(tmp_path, capsys):
    out = tmp_path / "a.json"
    assert main(["approximate", "--eps", "0.03125", "--slab",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    charts = [i for i, p in enumerate(doc["patches"])
              if p["dim"] == 2 and p["source"] != "removed-box"]
    assert charts and main(["verify", str(out)]) == 0
    # lift one chart patch's upper boundary; its stored error stays small
    doc["patches"][charts[0]]["coeffs"][1][0] = "5"
    out.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(out)]) == 2
    assert f"patch {charts[0]}: resampled error" in capsys.readouterr().err


def test_installed_entry_point():
    res = subprocess.run([sys.executable, "-m", "smoothparam.cli",
                          "parametrize-ck"], capture_output=True, text=True)
    assert res.returncode == 0
    assert json.loads(res.stdout)["kind"] == "ck-parametrization"


def test_remez_parametrize_leaves_scipy_optimize_unimported(tmp_path):
    # the gradient floor is computed by elimination, not by an optimizer
    out = tmp_path / "r.json"
    code = ("import sys; from smoothparam.cli import main; "
            "rc = main(['remez', '--eps', '1/10', '--parametrize', "
            f"'--out', {str(out)!r}]); "
            "print(rc, 'scipy.optimize' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.stdout.split() == ["0", "False"], res.stderr
    assert json.loads(out.read_text())["parametrization"]["N"] > 0


def test_entropy_leaves_scipy_unimported(tmp_path):
    # the grid greedy finds its balls on index windows, not with a kd-tree
    runs = [["--system", "polynomial", "--eps-list", "1/5", "--n-max", "2"],
            ["--system", "identity", "--n-max", "3"],
            ["--system", "toral", "--n-min", "3", "--n-max", "4"]]
    code = ("import sys; from smoothparam.cli import main; "
            f"rcs = [main(['entropy', *a, '--out', {str(tmp_path)!r} + "
            f"f'/{{i}}.json']) for i, a in enumerate({runs!r})]; "
            "print(*rcs, any(m.split('.')[0] == 'scipy' "
            "for m in sys.modules))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.stdout.split() == ["0", "0", "0", "False"], res.stderr
    assert [json.loads((tmp_path / f"{i}.json").read_text())["system"]
            for i in range(3)] == ["polynomial", "identity", "toral"]


def test_fractions_past_the_digit_limit_round_trip():
    from fractions import Fraction
    from smoothparam.serialize import frac_to_str, str_to_frac
    f = Fraction(-3 ** 20001, 10 ** 9000)
    num, den = frac_to_str(f).split("/")
    assert den == "1" + "0" * 9000
    assert num.startswith("-") and len(num) == 1 + 9543
    assert num.endswith(str(3 ** 20001 % 10 ** 50).zfill(50))
    assert str_to_frac(f"{num}/{den}") == f
    assert str_to_frac(frac_to_str(Fraction(2 ** 30001 + 1, 3))) \
        == Fraction(2 ** 30001 + 1, 3)
    assert frac_to_str(Fraction(-22, 7)) == "-22/7"


def test_approximate_past_the_digit_limit_verifies(tmp_path):
    # eps = 2^-19 once gave coefficients past Python's 4300-digit limit on
    # int strings; the round trip of such strings is tested above
    out = tmp_path / "approx.json"
    assert main(["approximate", "--eps", repr(2.0 ** -19), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_approximate_coefficients_stay_short(tmp_path):
    # chart ends are dyadic, so the degree-31 Taylor data at eps = 2^-30
    # stay short; ends rounded to 40-bit odd denominators gave 9,001 digits
    out = tmp_path / "approx.json"
    assert main(["approximate", "--eps", repr(2.0 ** -30), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    digits = [len(part.lstrip("-")) for p in doc["patches"]
              for poly in p["coeffs"] for c in poly for part in c.split("/")]
    assert max(p["degree"] for p in doc["patches"]) == 31
    assert 0 < max(digits) <= 1000


@pytest.mark.parametrize("scale", ["1", "4"])
def test_ck_route_artifact_verifies(tmp_path, capsys, scale):
    # (1 - x^2)/(2 + x^2) on [-1, 1]: C^k patches are resampled on their own
    # subcube of the chart's [0, 1]; times 4 (values up to 2) the patches
    # must approximate the stored source, not its value-normalized copy
    spec, out = tmp_path / "spec.json", tmp_path / "ck.json"
    spec.write_text(json.dumps({
        "function": {"kind": "rational", "num": [scale, "0", f"-{scale}"],
                     "den": ["2", "0", "1"]},
        "interval": ["-1", "1"]}))
    assert main(["approximate", "--route", "ck", "--eps", "0.001",
                 "--spec", str(spec), "--out", str(out)]) == 0
    assert "FAIL" not in capsys.readouterr().err
    assert main(["verify", str(out)]) == 0


# -- one parser per process ------------------------------------------------------

def test_the_parser_is_built_once_and_reads_the_env_per_call(
        tmp_path, monkeypatch):
    cli._build_parser.cache_clear()
    monkeypatch.delenv("SMOOTHPARAM_CONFIG", raising=False)
    out = tmp_path / "a.json"
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 2
    # set after the parser exists, and still honoured
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"parametrize-ck": {"k": 3}}))
    monkeypatch.setenv("SMOOTHPARAM_CONFIG", str(conf))
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 3
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_calls_through_the_cached_parser_share_no_state(tmp_path, monkeypatch):
    monkeypatch.delenv("SMOOTHPARAM_CONFIG", raising=False)
    conf, out = tmp_path / "conf.json", tmp_path / "a.json"
    conf.write_text(json.dumps({"parametrize-ck": {"k": 3, "eps": "1/50"}}))
    assert main(["--config", str(conf), "parametrize-ck",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 3
    fresh = cli._build_parser.__wrapped__()          # an uncached parser
    for argv in (["entropy", "--n-max", "2"], ["parametrize-ck"],
                 ["count-points", "--t", "5"], ["remez", "--classical"],
                 ["parametrize-ck", "--k", "3"], ["parametrize-analytic"]):
        assert vars(cli._apply_config(cli._build_parser(), argv)) == \
            vars(fresh.parse_args(argv))
    assert main(["parametrize-ck", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["k"] == 2


# -- the front door under drawn argv --------------------------------------------

_EDGE = ["0", "-1", "-2/3", "1e400", "99999999999999999999", "1/0", "abc",
         "", "nan", "-inf"]
_INT_EDGE = ["-99999999999999999999", "1/0", "abc", "1.5", ""]


def _values(*good):
    return st.sampled_from(list(good) + _EDGE)


def _ints(lo, hi, *more):
    return st.one_of(st.integers(lo, hi).map(str),
                     st.sampled_from(_INT_EDGE + list(more)))


@pytest.fixture(scope="module")
def front_door_files(tmp_path_factory):
    """Specs, configs and artifacts for the drawn argv: good ones and ones
    that are missing, not JSON, or JSON of the wrong shape."""
    root = tmp_path_factory.mktemp("front-door")
    docs = {
        "hyperbola": {"builtin": "hyperbola", "eps": "1/20"},
        "cubic": {"function": {"kind": "rational", "num": ["0", "0", "0", "1"],
                               "den": ["1"]}, "interval": ["-1", "1"]},
        "no-function": {"interval": ["0", "1"]},
        "bad-function": {"function": 3, "interval": ["0", "1"]},
        "zero-den": {"function": {"kind": "rational", "num": ["1"],
                                  "den": []}, "interval": ["0", "1"]},
        "short-interval": {"function": {"kind": "const", "value": "1"},
                           "interval": ["0"]},
        "bad-eps": {"builtin": "hyperbola", "eps": [1]},
        "bad-sings": {"builtin": "hyperbola",
                      "declared_singularities": [{}]},
        "inverse": _INVERSE, "sqrt-x": _SQRT_X,
        "list": [], "number": 3,
        "config": {"parametrize-ck": {"k": 3}},
        "config-bad-key": {"entropy": {"bogus": 1}},
        "config-bad-section": {"remez": 5},
        "no-kind": {"schema": "smoothparam@1"},
        "bad-kind": {"schema": "smoothparam@1", "kind": 7},
        "old-schema": {"schema": "smoothparam@0", "kind": "remez"},
        "short-count": {"schema": "smoothparam@1", "kind": "count-points"},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = root / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    paths["not-json"] = root / "not-json.json"
    paths["not-json"].write_text("{oops")
    paths["missing"] = root / "missing.json"
    paths["dir"] = root
    paths["csv"] = root / "sweep.csv"
    paths["artifact"] = root / "count.json"
    assert main(["count-points", "--t", "5", "--out",
                 str(paths["artifact"])]) == 0
    return {k: str(v) for k, v in paths.items()}


def _files(*names):
    return st.sampled_from(["@" + n for n in names])


_SPECS = _files("hyperbola", "cubic", "no-function", "bad-function",
                "zero-den", "short-interval", "bad-eps", "bad-sings", "inverse",
                "sqrt-x", "list", "number", "not-json", "missing", "dir")
_CSV = _files("csv", "dir")
_FLAGS = {
    "parametrize-ck": {"--eps": _values("1/100", "100/570", "1/2"),
                       "--k": _ints(-2, 3), "--spec": _SPECS},
    "parametrize-analytic": {"--eps": _values("1/100", "1/2"),
                             "--delta": _values("1/16", "1/2"),
                             "--spec": _SPECS},
    "approximate": {"--route": st.sampled_from(["ck", "analytic", "taylor"]),
                    "--eps": _values("0.25", "0.0625"),
                    "--sigma": _values("0.5", "1"), "--slab": None,
                    "--curve-eps": _values("1/67108864"),
                    "--spec": _SPECS},
    "count-points": {"--t": _ints(-3, 50, "3000"), "--d": _ints(-1, 3, "17"),
                     "--csv": _CSV, "--spec": _SPECS},
    "remez": {"--d1": _ints(-2, 3, "99999999999999999999"),
              "--eps": _values("1/10", "1/4", "1e-300"),
              "--classical": None, "--mu": _values("1", "1/2", "2"),
              "--samples": _ints(-2, 50), "--parametrize": None},
    "entropy": {"--system": st.sampled_from(
                    ["identity", "doubling", "polynomial", "nope"]),
                "--n-min": _ints(-2, 4), "--n-max": _ints(-2, 4),
                "--eps-list": st.lists(_values("1/10", "1/4"), min_size=1,
                                       max_size=3).map(",".join),
                "--csv": _CSV},
    "verify": {},
}
_VERIFY = _files("artifact", "no-kind", "bad-kind", "old-schema",
                 "short-count", "list", "number", "not-json", "missing", "dir")
_CONFIG = _files("config", "config-bad-key", "config-bad-section", "list",
                 "not-json", "missing")


@st.composite
def _argv(draw):
    """argv for one subcommand: a subset of its flags, each with a good or an
    edge value (0, negatives, huge values, 1/0 and non-numbers); "@name"
    names a good, malformed, missing or unreadable file."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = ["--config", draw(_CONFIG)] if draw(st.integers(0, 5)) == 0 else []
    argv.append(command)
    flags = _FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), unique=True,
                              max_size=4)) if flags else []:
        argv.append(flag if flags[flag] is None
                    else f"{flag}={draw(flags[flag])}")
    if command == "verify":
        argv.append(draw(_VERIFY))
    return argv


@settings(max_examples=200)
@given(drawn=_argv())
def test_front_door_fuzz(front_door_files, drawn):
    # exit 0, 1 or 2 (argparse's usage errors exit 2 too), never a traceback,
    # and an exit-1 message starts with "error:"
    argv = []
    for a in drawn:                          # "--spec=@name" or "@name"
        head, at, name = a.partition("@")
        argv.append(head + front_door_files[name] if at else a)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:            # argparse rejects the argv
            rc = exc.code
    text = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc, text)
    assert "Traceback" not in text, argv
    if rc == 1:
        assert text.startswith("error:"), (argv, text)
