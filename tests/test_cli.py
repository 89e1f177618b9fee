"""Command-line pipelines and JSON artifacts: exit codes, byte-determinism,
round-trips, fault injection, and config resolution."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from smoothparam.ck_param import hyperbola_parametrization
from smoothparam.cli import main
from smoothparam.serialize import dumps, loads, number_to_json

# sha256 of `parametrize-ck --eps 1/100` (k=2) as first emitted; a change to
# chart construction or certification that moves a byte shows up here
CK2_ARTIFACT_SHA256 = \
    "67016d96d037ad32b232e116caef9abdfd01c6cd103cc0d6913be03217231282"
# sha256 of `parametrize-ck --k 3 --eps 100/570`; a derivative there has a
# root at an end of [0, 1], so this also pins how isolation steps past it
CK3_ARTIFACT_SHA256 = \
    "f649b862bdd2329cefd63034a79a719eabb1f92ef2124e311eb55383b1537be2"
# sha256 of analytic-route artifacts (disk bounds sampled on complex circles),
# as emitted before circle sampling became one array call per disk
ANALYTIC_ARTIFACT_SHA256 = {
    (): "ca54f2709839e24fa199992fca62070cb201321b6b593961303e7f66b88fb13b",
    ("--eps", "1/100000", "--delta", "1/2048"):
        "c174194933d828572400207117e31a637160904833c85ef49e53d8dc5da8e980",
}
APPROX_ARTIFACT_SHA256 = {
    (): "2bfca1a8c2b605dfcec1c18cf75b7688623ed1ee357d3bc3bcd2906c1045b5b0",
    ("--slab",):
        "ff0cf32fdd090d2f494595bda8963898c6f8783e73aa0b997c440b2eb9088032",
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


def test_zero_denominator_is_an_input_error(capsys):
    assert main(["entropy", "--eps-list", "1/0"]) == 1
    assert capsys.readouterr().err == \
        "error: '1/0' has a zero denominator\n"


def test_count_points_csv_matches_oracle(tmp_path):
    out, csv = tmp_path / "c.json", tmp_path / "c.csv"
    assert main(["count-points", "--t", "30", "--csv", str(csv),
                 "--out", str(out)]) == 0
    rows = [r.split(",") for r in csv.read_text().strip().split("\n")[1:]]
    assert len(rows) == 30
    for t, count, brute in rows:
        assert count == brute
    doc = json.loads(out.read_text())
    assert doc["count"] == len(doc["points"])


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
    # eps = 2^-19 gives coefficients with more than 4300 decimal digits
    out = tmp_path / "approx.json"
    assert main(["approximate", "--eps", repr(2.0 ** -19), "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


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
