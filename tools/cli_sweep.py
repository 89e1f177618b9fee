"""Run a fixed list of CLI calls and `verify` each artifact, for diffing.

    python3 tools/cli_sweep.py OUTDIR [--checkout PATH]

Each call runs `python -m smoothparam.cli` in a fresh process, with
PYTHONPATH at the checkout's `src` (default: the checkout holding this
script) and OUTDIR as its working directory.  For a call named NAME it
writes NAME.json (the artifact, if the call wrote one) and NAME.log (exit
code, stdout and stderr); `verify` on the artifact writes NAME.verify.log.
The checkout's path is replaced by `<checkout>` in the logs, so
`diff -r` of two OUTDIRs made from two checkouts lists exactly the calls
whose output moved.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# Spec files written into OUTDIR: (1 - x^2)/(2 + x^2), with complex poles
# at +-i sqrt 2, and sqrt((2 + x^2)/(3 + x)), whose branch points (the same
# two and -3) are declared.
SPECS = {
    "ratio.json": {"function": {"kind": "rational", "num": ["1", "0", "-1"],
                                "den": ["2", "0", "1"]},
                   "interval": ["-1", "1"]},
    "sqrt.json": {"function": {"kind": "sqrt", "inner": {
        "kind": "rational", "num": ["2", "0", "1"], "den": ["3", "1"]}},
        "interval": ["0", "1"],
        "declared_singularities": [-3, [0, 2 ** 0.5], [0, -2 ** 0.5]]},
}

CALLS = [
    ("ck-k2", ["parametrize-ck"]),
    ("ck-k3", ["parametrize-ck", "--k", "3", "--eps", "100/570"]),
    ("ck-k4", ["parametrize-ck", "--k", "4", "--eps", "1/10"]),
    ("ck-ratio", ["parametrize-ck", "--spec", "ratio.json"]),
    ("ck-sqrt", ["parametrize-ck", "--k", "3", "--spec", "sqrt.json"]),
    ("analytic", ["parametrize-analytic"]),
    ("analytic-ratio", ["parametrize-analytic", "--spec", "ratio.json"]),
    ("analytic-sqrt", ["parametrize-analytic", "--spec", "sqrt.json"]),
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
    ("remez-classical", ["remez", "--classical"]),
    ("remez-classical-d3", ["remez", "--classical", "--d1", "3",
                            "--samples", "199"]),
    ("remez-classical-mu", ["remez", "--classical", "--mu", "0.5"]),
    ("remez-eps", ["remez", "--eps", "1/34"]),
    ("remez-param", ["remez", "--eps", "1/10", "--parametrize"]),
    ("entropy", ["entropy", "--system", "doubling", "--n-max", "8"]),
]


def run(checkout, outdir, name, argv):
    """One CLI call from outdir; writes NAME.log with its exit code and
    output, the checkout's path masked."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run([sys.executable, "-m", "smoothparam.cli", *argv],
                          cwd=outdir, env=env, capture_output=True, text=True)
    log = (f"$ smoothparam {' '.join(argv)}\nexit {proc.returncode}\n"
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
        if os.path.exists(artifact):        # left by an earlier sweep
            os.remove(artifact)
        run(checkout, args.outdir, name, call + ["--out", f"{name}.json"])
        if os.path.exists(artifact):
            run(checkout, args.outdir, f"{name}.verify",
                ["verify", f"{name}.json"])
        print(name, flush=True)


if __name__ == "__main__":
    main()
