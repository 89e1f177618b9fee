"""Run a fixed list of CLI calls and `verify` each artifact, for diffing.

    python3 tools/cli_sweep.py OUTDIR [--checkout PATH]

Each call runs `python -m smoothparam.cli` in a fresh process, with
PYTHONPATH at the checkout's `src` (default: the checkout holding this
script) and OUTDIR as its working directory.  For a call named NAME it
writes NAME.json (the artifact, if the call wrote one) and NAME.log (exit
code, stdout and stderr); a call with `--csv NAME.csv` writes that too, and
`verify` on the artifact writes NAME.verify.log.
No CLI call reaches an algebraic branch or a slab chart, so one more fresh
process makes the Python-API calls of BRANCH_SCRIPT and writes their
outputs beside the CLI's: branch-*.hex (value grids as hex bytes),
branch-*.json (artifacts), slab-*.json (slab charts with their bounds)
and branches.log (its exit code, output and the trackers' counters); a
third process writes branch-respelled-* (one curve from two spellings of
P, which should match) and respelled.log.
The checkout's path is replaced by `<checkout>` in the logs, so
`diff -r` of two OUTDIRs made from two checkouts lists exactly the calls
whose output moved.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys

# Spec files written into OUTDIR: (1 - x^2)/(2 + x^2), with complex poles
# at +-i sqrt 2; sqrt((2 + x^2)/(3 + x)), whose branch points (the same
# two and -3) are declared; 3/2 plus that root, spelled with a "const" node,
# so its values exceed 1; x sqrt(x), rational at the rational squares;
# 1/(3x - 1), whose pole at 1/3 fails a count from t = 3 on; and x^(-1)
# over [-1, 1], whose only unbounded coordinate at k = 0 is f itself.
_X = {"kind": "rational", "num": ["0", "1"], "den": ["1"]}
_SQRT = {"kind": "sqrt", "inner": {
    "kind": "rational", "num": ["2", "0", "1"], "den": ["3", "1"]}}
_SQRT_SINGULARITIES = [-3, [0, 2 ** 0.5], [0, -2 ** 0.5]]
SPECS = {
    "ratio.json": {"function": {"kind": "rational", "num": ["1", "0", "-1"],
                                "den": ["2", "0", "1"]},
                   "interval": ["-1", "1"]},
    "sqrt.json": {"function": _SQRT, "interval": ["0", "1"],
                  "declared_singularities": _SQRT_SINGULARITIES},
    "constsqrt.json": {"function": {"kind": "add", "terms": [
        {"kind": "const", "value": "3/2"}, _SQRT]},
        "interval": ["0", "1"],
        "declared_singularities": _SQRT_SINGULARITIES},
    "xsqrtx.json": {"function": {"kind": "mul", "f": _X,
                                 "g": {"kind": "sqrt", "inner": _X}},
                    "interval": ["0", "1"]},
    "pole.json": {"function": {"kind": "rational", "num": ["1"],
                               "den": ["-1", "3"]},
                  "interval": ["0", "1"]},
    "inv.json": {"function": {"kind": "pow", "f": _X, "n": -1},
                 "interval": ["-1", "1"]},
}

CALLS = [
    ("ck-k2", ["parametrize-ck"]),
    ("ck-k3", ["parametrize-ck", "--k", "3", "--eps", "100/570"]),
    ("ck-k4", ["parametrize-ck", "--k", "4", "--eps", "1/10"]),
    ("ck-ratio", ["parametrize-ck", "--spec", "ratio.json"]),
    ("ck-sqrt", ["parametrize-ck", "--k", "3", "--spec", "sqrt.json"]),
    ("ck-k0-inv", ["parametrize-ck", "--k", "0", "--spec", "inv.json"]),
    ("analytic", ["parametrize-analytic"]),
    ("analytic-ratio", ["parametrize-analytic", "--spec", "ratio.json"]),
    ("analytic-sqrt", ["parametrize-analytic", "--spec", "sqrt.json"]),
    ("ck-constsqrt", ["parametrize-ck", "--k", "2", "--spec",
                      "constsqrt.json"]),
    ("analytic-constsqrt", ["parametrize-analytic", "--spec",
                            "constsqrt.json"]),
    ("approx-constsqrt", ["approximate", "--eps", "0.0625", "--spec",
                          "constsqrt.json"]),
    ("approx-analytic", ["approximate", "--eps", "0.0009765625"]),
    ("approx-analytic-slab", ["approximate", "--eps", "0.0009765625",
                              "--slab"]),
    ("approx-analytic-ratio", ["approximate", "--eps", "0.015625",
                               "--spec", "ratio.json"]),
    ("approx-analytic-sqrt", ["approximate", "--eps", "0.0625",
                              "--spec", "sqrt.json"]),
    ("approx-ck", ["approximate", "--route", "ck", "--eps", "0.03125"]),
    ("approx-ck-ratio", ["approximate", "--route", "ck", "--eps", "0.001",
                         "--spec", "ratio.json"]),
    ("approx-ck-sqrt", ["approximate", "--route", "ck", "--eps", "0.001",
                        "--spec", "sqrt.json"]),
    ("count", ["count-points", "--t", "60", "--d", "2"]),
    ("count-ratio", ["count-points", "--t", "60", "--spec", "ratio.json"]),
    ("count-csv", ["count-points", "--t", "60", "--csv", "count-csv.csv"]),
    ("count-csv-xsqrtx", ["count-points", "--t", "60", "--spec",
                          "xsqrtx.json", "--csv", "count-csv-xsqrtx.csv"]),
    ("count-csv-pole", ["count-points", "--t", "61", "--spec", "pole.json",
                        "--csv", "count-csv-pole.csv"]),
    ("count-xsqrtx-d2", ["count-points", "--spec", "xsqrtx.json", "--t", "50",
                         "--d", "2"]),
    ("remez-classical", ["remez", "--classical"]),
    ("remez-classical-d3", ["remez", "--classical", "--d1", "3",
                            "--samples", "199"]),
    ("remez-classical-mu", ["remez", "--classical", "--mu", "0.5"]),
    ("remez-eps", ["remez", "--eps", "1/34"]),
    ("remez-param", ["remez", "--eps", "1/10", "--parametrize"]),
    ("entropy", ["entropy", "--system", "doubling", "--n-max", "8"]),
    ("entropy-polynomial", ["entropy", "--system", "polynomial",
                            "--eps-list", "1/10", "--n-max", "3"]),
    ("entropy-identity", ["entropy", "--system", "identity", "--n-max", "12"]),
    ("entropy-toral", ["entropy", "--system", "toral", "--n-min", "3",
                       "--n-max", "8"]),
    # the n ranges of the benchmark's entropy jobs, each at its widest
    ("entropy-toral-bench", ["entropy", "--system", "toral", "--n-min", "1",
                             "--n-max", "8"]),
    ("entropy-polynomial-bench", ["entropy", "--system", "polynomial",
                                  "--eps-list", "1/10", "--n-max", "4"]),
    ("entropy-identity-bench", ["entropy", "--system", "identity",
                                "--n-max", "20"]),
    ("entropy-doubling-bench", ["entropy", "--system", "doubling",
                                "--n-min", "2", "--n-max", "12"]),
]

# Branches of y^2 = x^3 + a x + b from the `curves` benchmark family (the
# upper branch through x = 1): a 4,096-point grid on [1, 2], and k = 1 and
# analytic artifacts for two curves; the k = 2 artifact on [1, 2] of
# y^2 = x^3 + 1, whose build takes steps of one ulp in x; the raw 8 x 256
# circle_sup rows of the first curve's disk about 7/4 of radius 1/2, which
# its analytic chart on [3/2, 2] reduces to their max K; a complex path on
# y^2 = x^3 + 1 that starts at the seed's x and repeats points (zero-length
# steps); and the branch of y^3 + y - x through x = 1/2 on a grid through
# 0.0 and -0.0, where the value is exactly 0; and a 4,096-point grid on
# [1, 200] of the curve y^2 = x^3 + x/2 + 17/4, whose terms there reach
# ~10^7 (an error is logged in place of its file).  Last, the rational slab
# x^2/2 <= y <= 1/2 + x/(2 + x) on [0, 1] at k = 2 and 3: each slab chart's
# maps, the bounds of its build and of a re-check on a grid 4 times finer,
# floats as hex.  A slab chart carries its upper graph as `top`, so its
# bounds add to a graph chart's keys ('psi', i) and ('f', i), the latter
# over both graphs, the slope ('f-slope', i) of top - f_comp, which no CLI
# call reaches.  RESPELL_SCRIPT builds, in a process of its own, the grid
# and a k = 2 artifact on [1, 2] of y^2 = x^3 - x/4 + 15/4 twice: from P's
# terms as the benchmark spells them and in reverse; the two spellings are
# one polynomial, so each pair of outputs should be byte-identical.
_PRELUDE = """
import json
import math
from fractions import Fraction as F
import numpy as np
from smoothparam.analytic_param import analytic_delta_parametrize
from smoothparam.bivar import BivarPoly
from smoothparam.charts import circle_sup, verify_ck_chart
from smoothparam.ck_param import ck_parametrize_function, ck_parametrize_slab
from smoothparam.funcs import BranchExpr, RationalExpr
from smoothparam.poly import Poly
from smoothparam.serialize import (dumps, expr_to_json, parametrization_to_json,
                                   poly_to_json)

def cubic(a, b, step=1):
    terms = [((0, 2), 1), ((3, 0), -1), ((1, 0), -a), ((0, 0), -b)]
    P = BivarPoly(dict(terms[::step]))
    return BranchExpr(P, (1.0, math.sqrt(float(1 + a + b))))

def save(name, f, text):
    t = f.tracker
    print(name, t.halvings, t.single_steps)
    with open(name, "w") as fh:
        fh.write(text)
"""
BRANCH_SCRIPT = _PRELUDE + """
f = cubic(F(-1, 4), F(15, 4))
save("branch-eval.hex", f, f.eval_array(np.linspace(1.0, 2.0, 4096)).tobytes().hex())
for a, b in ((F(-1, 4), F(15, 4)), (F(1, 2), F(17, 4))):
    tag = f"{a.numerator}_{a.denominator}-{b.numerator}_{b.denominator}"
    f = cubic(a, b)
    par = ck_parametrize_function(f, 1, (1, F(5, 4)))
    save(f"branch-ck1-{tag}.json", f, dumps(parametrization_to_json(par, "ck")))
    f = cubic(a, b)
    par = analytic_delta_parametrize(f, F(1, 16), (1, 2))
    save(f"branch-analytic-{tag}.json", f,
         dumps(parametrization_to_json(par, "analytic")))
f = cubic(0, 1)
par = ck_parametrize_function(f, 2, (1, 2))
save("branch-ck2-0_1-1_1.json", f, dumps(parametrization_to_json(par, "ck")))
f, rows = cubic(F(-1, 4), F(15, 4)), []
circle_sup(lambda zs: rows.append(f.eval_array(zs)) or rows[0], 1.75, 0.5)
save("branch-circle.hex", f, rows[0].tobytes().hex())
f = cubic(0, 1)
path = np.array([[1, 1, 1.25 + 0.1j, 1.25 + 0.1j, 1.5, 1.5]])
save("branch-path.hex", f, f.eval_array(path).tobytes().hex())
y0 = 0.42385379906978327        # y^3 + y = 1/2
f = BranchExpr(BivarPoly({(0, 3): 1, (0, 1): 1, (1, 0): -1}), (0.5, y0))
xs = np.concatenate([np.linspace(-1.0, 1.0, 257), [-0.0, 0.0, 5e-324]])
save("branch-y3.hex", f, f.eval_array(xs).tobytes().hex())
f = cubic(F(1, 2), F(17, 4))
try:
    ys = f.eval_array(np.linspace(1.0, 200.0, 4096))
except Exception as e:
    print("branch-far.hex", type(e).__name__, e)
else:
    save("branch-far.hex", f, ys.tobytes().hex())

def hexed(bounds):
    return {str(key): float(v).hex() for key, v in bounds.items()}

g1 = RationalExpr(Poly([0, 0, F(1, 2)]))
g2 = RationalExpr(Poly([2, 3]), Poly([4, 2]))    # 1/2 + x/(2 + x)
for k in (2, 3):
    charts = []
    for c in ck_parametrize_slab(g1, g2, k, (0, 1)).charts:
        built, rep = hexed(c.bounds), verify_ck_chart(c, factor=4)
        charts.append({"psi": poly_to_json(c.psi),
                       "f_comp": expr_to_json(c.f_comp),
                       "top": expr_to_json(c.top),
                       "steps": repr(c.meta["steps"]), "bounds": built,
                       "recheck": {"ok": rep.ok, "detail": rep.detail,
                                   "bounds": hexed(rep.per_order)}})
    print(f"slab-k{k}.json", len(charts))
    with open(f"slab-k{k}.json", "w") as fh:
        fh.write(json.dumps(charts, sort_keys=True, indent=1) + "\\n")
"""
RESPELL_SCRIPT = _PRELUDE + """
for step, tag in ((1, ""), (-1, "-reversed")):
    f = cubic(F(-1, 4), F(15, 4), step)
    save(f"branch-respelled-eval{tag}.hex", f,
         f.eval_array(np.linspace(1.0, 2.0, 4096)).tobytes().hex())
    f = cubic(F(-1, 4), F(15, 4), step)
    par = ck_parametrize_function(f, 2, (1, 2))
    save(f"branch-respelled-ck2{tag}.json", f,
         dumps(parametrization_to_json(par, "ck")))
"""


def run(checkout, outdir, name, argv, script=None):
    """One CLI call from outdir, or the Python code `script` in place of
    the CLI; writes NAME.log with its exit code and output, the checkout's
    path masked."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    cmd = ["-c", script] if script else ["-m", "smoothparam.cli", *argv]
    proc = subprocess.run([sys.executable, *cmd], cwd=outdir, env=env,
                          capture_output=True, text=True)
    what = f"python -c <{name} script>" if script else \
        f"smoothparam {' '.join(argv)}"
    log = (f"$ {what}\nexit {proc.returncode}\n"
           f"--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
    with open(os.path.join(outdir, f"{name}.log"), "w") as fh:
        fh.write(log.replace(checkout, "<checkout>"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("outdir")
    ap.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    os.makedirs(args.outdir, exist_ok=True)
    for spec, doc in SPECS.items():
        with open(os.path.join(args.outdir, spec), "w") as fh:
            json.dump(doc, fh)
    for name, call in CALLS:
        artifact = os.path.join(args.outdir, f"{name}.json")
        for left in (artifact, os.path.join(args.outdir, f"{name}.csv")):
            if os.path.exists(left):        # left by an earlier sweep
                os.remove(left)
        run(checkout, args.outdir, name, call + ["--out", f"{name}.json"])
        if os.path.exists(artifact):
            run(checkout, args.outdir, f"{name}.verify",
                ["verify", f"{name}.json"])
        print(name, flush=True)
    for left in glob.glob(os.path.join(args.outdir, "branch-*")) + \
            glob.glob(os.path.join(args.outdir, "slab-*")):
        os.remove(left)                     # left by an earlier sweep
    run(checkout, args.outdir, "branches", [], script=BRANCH_SCRIPT)
    print("branches", flush=True)
    run(checkout, args.outdir, "respelled", [], script=RESPELL_SCRIPT)
    print("respelled", flush=True)


if __name__ == "__main__":
    main()
