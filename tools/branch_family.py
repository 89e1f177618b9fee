"""Build every branch of the `curves` benchmark family and print digests.

    python3 tools/branch_family.py KIND [KIND ...] [--checkout PATH]

KIND is one of eval, analytic, ck1-short, ck1 and ck2.  The family is the
81 curves y^2 = x^3 + a x + b, a in {-1, -3/4, ..., 1} and b in {3, 13/4,
..., 5}, that `perfbench/workloads.py` (`_curve_params`) draws from; each
branch is the upper one through x = 1.  Per curve and kind it builds, in a
fresh process with PYTHONPATH at the checkout's `src` (default: the
checkout holding this script):
- eval: the values on a 4,096-point grid on [1, 2];
- analytic: the analytic artifact at delta 1/16 on [1, 2];
- ck1-short, ck1, ck2: the C^k artifact at k = 1 on [1, 5/4], k = 1 on
  [1, 2] and k = 2 on [1, 2].
It prints one line per curve (a, b, the sha256 of the output or the error's
type, the tracker's halvings, single steps and final cache size), then a
total line per kind: the sha256 of all the curves' (a, b, output) lines,
which two checkouts share exactly when every output matches, the summed
counters and the largest cache, to set beside CONTINUATION_CACHE_CAP.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

SCRIPT = """
import hashlib
import math
import sys
import time
from fractions import Fraction as F
import numpy as np
from smoothparam.analytic_param import analytic_delta_parametrize
from smoothparam.bivar import BivarPoly
from smoothparam.ck_param import ck_parametrize_function
from smoothparam.funcs import BranchExpr
from smoothparam.serialize import dumps, parametrization_to_json

def family():
    for i in range(-4, 5):
        for j in range(12, 21):
            a, b = F(i, 4), F(j, 4)
            if 4 * a ** 3 + 27 * b ** 2 == 0:
                continue
            roots = np.roots([1.0, 0.0, float(a), float(b)])
            if all(r.real < 1 and abs(r - min(2.0, max(1.0, r.real))) >= 0.5
                   for r in roots):
                yield a, b

def build(kind, f):
    if kind == "eval":
        return f.eval_array(np.linspace(1.0, 2.0, 4096)).tobytes()
    if kind == "analytic":
        par = analytic_delta_parametrize(f, F(1, 16), (1, 2))
        return dumps(parametrization_to_json(par, "analytic")).encode()
    k, hi = {"ck1-short": (1, F(5, 4)), "ck1": (1, 2), "ck2": (2, 2)}[kind]
    par = ck_parametrize_function(f, k, (1, hi))
    return dumps(parametrization_to_json(par, "ck")).encode()

for kind in sys.argv[1:]:
    outs, halved, single, cached = [], 0, 0, 0
    t0 = time.perf_counter()
    for a, b in family():
        P = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): -a, (0, 0): -b})
        f = BranchExpr(P, (1.0, math.sqrt(float(1 + a + b))))
        try:
            out = hashlib.sha256(build(kind, f)).hexdigest()
        except Exception as e:
            out = type(e).__name__
        t = f.tracker
        outs.append(f"{a} {b} {out}")
        halved, single = halved + t.halvings, single + t.single_steps
        cached = max(cached, len(t._keys))
        print(kind, outs[-1], t.halvings, t.single_steps, len(t._keys),
              flush=True)
    total = hashlib.sha256("\\n".join(outs).encode()).hexdigest()
    print(f"{kind} total: {len(outs)} curves, digest {total}, {halved} "
          f"halvings, {single} single steps, largest cache {cached} keys, "
          f"{time.perf_counter() - t0:.2f} s", flush=True)
"""

KINDS = ("eval", "analytic", "ck1-short", "ck1", "ck2")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kinds", nargs="+", choices=KINDS)
    ap.add_argument("--checkout", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    args = ap.parse_args(argv)
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.path.abspath(args.checkout), "src"))
    return subprocess.run([sys.executable, "-c", SCRIPT, *args.kinds],
                          env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
