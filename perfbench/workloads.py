"""Job lists, job execution and output checks for the three workloads.

A job is a dict: `id`, `kind`, and either `argv` (a `smoothparam` CLI call,
run in-process through `smoothparam.cli.main`) or `curve` (a Python-API call
on an algebraic branch).  Paths in `argv` are relative to the run directory.
A job whose inputs hit one of the seed's known defects carries
`check["defect"]`: the exit code and the stderr text that defect produces.

Each workload is built from blocks.  A block is a fixed mix of job kinds
that takes about `BLOCK_SECONDS` on a 2-CPU x86 host; the seed only draws
the inputs, stratified so every block costs about the same.  Keeping the
mix fixed per block keeps the median and the tail inside the same cluster
of jobs from seed to seed.  A run times the same job list in several fresh
processes (rounds, see run.py), so a block is a third of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
import traceback
import warnings
from fractions import Fraction

import numpy as np

WORKLOADS = ("charts", "numerics", "curves")
BLOCK_SECONDS = 10.0

# Spec files for the acceptance-7 curves, written at set-up.
SPECS = {
    "square.json": {"function": {"kind": "rational", "num": ["0", "0", "1"],
                                 "den": ["1"]},
                    "interval": ["-1", "1"]},
    "ratio.json": {"function": {"kind": "rational", "num": ["1", "0", "-1"],
                                "den": ["2", "0", "1"]},
                   "interval": ["-1", "1"]},
    "xsqrtx.json": {"function": {"kind": "mul",
                                 "f": {"kind": "rational", "num": ["0", "1"],
                                       "den": ["1"]},
                                 "g": {"kind": "sqrt",
                                       "inner": {"kind": "rational",
                                                 "num": ["0", "1"],
                                                 "den": ["1"]}}},
                    "interval": ["0", "1"]},
}

POLY_DEFECT = {"rc": 2, "stderr": "M_lower decreased in n at eps=0.1"}
DIGITS_DEFECT = {"rc": 1, "stderr": "Exceeds the limit (4300 digits)"}
# delta = 2^-11: 12 charts, so the two analytic builds, their verifies and
# the k=3 build and verify make one band of similar cost holding the tail.
ANALYTIC_J = 11


# -- input generation ----------------------------------------------------------

class _Plan:
    """Seeded draws with no repeated job inputs within a run."""

    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.seen = set()
        self.jobs = []

    def unique(self, key, draw):
        """Redraw until the job inputs are new in this run."""
        for _ in range(1000):
            value = draw()
            if (key, value) not in self.seen:
                self.seen.add((key, value))
                return value
        raise RuntimeError(f"input space for {key} exhausted")

    def first_new(self, key, values):
        """The first of `values` not yet used for key in this run; for
        inputs whose cost must not depend on the seed."""
        for value in values:
            if (key, value) not in self.seen:
                self.seen.add((key, value))
                return value
        raise RuntimeError(f"input space for {key} exhausted")

    def spread(self, key, lo, hi, n, log=False):
        """n new integers in [lo, hi], one from the middle 30% of each of n
        equal strata, so that every seed draws nearly the same input sizes
        and job costs."""
        a, b = (math.log(lo), math.log(hi + 1)) if log else (lo, hi + 1)
        out = []
        for i in range(n):
            def draw(i=i):
                u = a + (b - a) * (i + 0.35 + 0.3 * self.rng.random()) / n
                return min(hi, max(lo, int(math.exp(u) if log else u)))
            out.append(self.unique(key, draw))
        return out

    def add(self, kind, argv=None, **extra):
        job = {"id": f"{len(self.jobs):03d}-{kind}", "kind": kind}
        if argv is not None:
            job["argv"] = argv
        job.update(extra)
        self.jobs.append(job)
        return job


def _charts_block(plan):
    """4 k=2 builds, 2 analytic builds and one k=3 build, each followed by
    `verify` on its artifact.  The k=2 builds and verifies are the majority
    (the median lands among them); the rest hold the tail."""
    rng = plan.rng
    builds = [("ck2", ["parametrize-ck", "--eps", f"1/{q}"])
              for q in plan.spread("ck2", 10, 10**6, 4, log=True)]
    # For q >= 10^4 an analytic build makes j + 1 charts and its cost is
    # proportional to them, so a fixed j gives every block the same cost;
    # below that the chart count also depends on q.
    for q in plan.spread("analytic", 10**4, 10**6, 2, log=True):
        builds.append(("analytic", ["parametrize-analytic", "--eps", f"1/{q}",
                                    "--delta", f"1/{2 ** ANALYTIC_J}"]))
    # k = 3 cost follows the chart count, which jumps between 4, 6 and 12 as
    # eps falls; for eps in [1/6.3, 1/5.1] the hyperbola gives 4 charts.
    q, = plan.spread("ck3", 510, 630, 1)
    builds.append(("ck3", ["parametrize-ck", "--k", "3", "--eps", f"100/{q}"]))
    rng.shuffle(builds)
    for kind, argv in builds:
        out = f"{len(plan.jobs):03d}.json"
        plan.add(kind, argv + ["--out", out], artifact=out,
                 check={"charts": 4} if kind == "ck2" else {})
        plan.add("verify", ["verify", out], artifact_of=out)


def _numerics_block(plan):
    """Many short count-points jobs (the median), a middle band of remez,
    approximate, CSV sweeps and entropy; the classical remez, toral and
    polynomial entropy jobs hold the tail."""
    rng = plan.rng
    jobs = []
    for t in plan.spread("count", 50, 400, 18):
        jobs.append(("count", ["--t", str(t)], {}))
    for t in plan.spread("count-d2", 50, 400, 10):
        jobs.append(("count-d2", ["--t", str(t), "--d", "2"], {}))
    for spec in SPECS:
        for t in plan.spread(spec, 50, 400, 6):
            jobs.append(("count-spec", ["--spec", spec, "--t", str(t)], {}))
    t = plan.unique("csv", lambda: rng.randint(110, 120))
    jobs.append(("count-csv", ["--t", str(t)], {}))
    # d1 = 3 costs about 2.5 times d1 = 2 at the same sample count
    for d1, lo, hi in ((2, 360, 440), (3, 180, 220)):
        samples, = plan.spread(("classical", d1), lo, hi, 1)
        jobs.append((f"remez-classical-d{d1}",
                     ["--classical", "--d1", str(d1),
                      "--samples", str(samples)], {}))
    q, = plan.spread("remez-eps", 10, 200, 1, log=True)
    jobs.append(("remez-eps", ["--eps", f"1/{q}"], {}))
    q, = plan.spread("remez-param", 8, 256, 1, log=True)
    jobs.append(("remez-param", ["--eps", f"1/{q}", "--parametrize"], {}))
    for _ in range(2):
        n = plan.unique("identity", lambda: rng.randint(5, 20))
        jobs.append(("entropy-identity", ["--system", "identity",
                                          "--n-max", str(n)], {}))
    for n_max in (10, 12):
        n_min = plan.unique(("doubling", n_max), lambda: rng.randint(1, 4))
        jobs.append(("entropy-doubling", ["--system", "doubling",
                                          "--n-min", str(n_min),
                                          "--n-max", str(n_max)], {}))
    # fixed n-max, so the largest toral allocation (and rss_peak_mb) is the
    # same in every run
    n_min = plan.unique(("toral", 8), lambda: rng.randint(1, 6))
    jobs.append(("entropy-toral", ["--system", "toral", "--n-min", str(n_min),
                                   "--n-max", "8"], {}))
    # the cost grows with n-max
    n = plan.first_new("polynomial", (3, 2, 4))
    jobs.append(("entropy-polynomial", ["--system", "polynomial",
                                        "--eps-list", "1/10",
                                        "--n-max", str(n)],
                 {"defect": POLY_DEFECT}))
    for slab in (False, True):
        j, = plan.spread(("approx", slab), 6, 18, 1)
        jobs.append(("approx-slab" if slab else "approx",
                     ["--eps", repr(2.0 ** -j)] + (["--slab"] * slab), {}))
    j = plan.first_new("approx-digits", (20, 19, 21, 22))
    jobs.append(("approx-digits", ["--eps", repr(2.0 ** -j)],
                 {"defect": DIGITS_DEFECT}))

    rng.shuffle(jobs)
    command = {"count": "count-points", "remez": "remez", "entropy": "entropy",
               "approx": "approximate"}
    for kind, args, check in jobs:
        out = f"{len(plan.jobs):03d}.json"
        argv = [command[kind.split("-")[0]]] + args + ["--out", out]
        if kind == "count-csv":
            check = {"csv": f"{len(plan.jobs):03d}.csv"}
            argv += ["--csv", check["csv"]]
        plan.add(kind, argv, artifact=out, check=check)


def _curve_params(rng):
    """(a, b) for y^2 = x^3 + a x + b: smooth, every singular point at least
    1/2 from [1, 2] and projecting left of it, so the upper branch through
    x = 1 is real and analytic on the interval.  The range is narrow (81
    curves) because the chart builds' cost depends on the curve."""
    while True:
        a, b = Fraction(rng.randint(-4, 4), 4), Fraction(rng.randint(12, 20), 4)
        if 4 * a ** 3 + 27 * b ** 2 == 0:
            continue
        roots = np.roots([1.0, 0.0, float(a), float(b)])
        if all(r.real < 1 and _seg_dist(r) >= 0.5 for r in roots):
            return a, b


def _seg_dist(z):
    x = min(2.0, max(1.0, z.real))
    return abs(z - x)


def _curves_block(plan):
    kinds = ["ck1", "analytic"] + ["eval"] * 4
    plan.rng.shuffle(kinds)
    for kind in kinds:
        a, b = plan.unique("curve", lambda: _curve_params(plan.rng))
        plan.add(f"curve-{kind}", curve=[str(a), str(b)])


_BLOCKS = {"charts": _charts_block, "numerics": _numerics_block,
           "curves": _curves_block}


def make_jobs(workload, seed, blocks):
    """The job list of a run: `blocks` blocks drawn from the seed."""
    plan = _Plan(workload, seed)
    for _ in range(blocks):
        _BLOCKS[workload](plan)
    return plan.jobs


def blocks_for(seconds, rounds):
    """Blocks per round, so that `rounds` rounds take about `seconds`."""
    return max(1, round(seconds / rounds / BLOCK_SECONDS))


def write_specs(rundir):
    for name, spec in SPECS.items():
        with open(os.path.join(rundir, name), "w") as fh:
            json.dump(spec, fh)


def warm_up(workload):
    """Finish lazy imports that every CLI call of the workload would pay."""
    import smoothparam.cli  # noqa: F401
    if workload == "numerics":
        import scipy.optimize  # noqa: F401  (remez.curve_gradient_floor)


# -- execution -----------------------------------------------------------------

def curve_branch(a, b):
    from smoothparam.bivar import BivarPoly
    from smoothparam.funcs import BranchExpr
    P = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): -a, (0, 0): -b})
    return BranchExpr(P, (1.0, math.sqrt(float(1 + a + b))))


CURVE_GRID = 4096
# A k=1 build on [1, 2] costs about 10 s; on [1, 5/4] about 2 s, one chart.
CK1_INTERVAL = (1, Fraction(5, 4))


def _run_curve(kind, a, b):
    from smoothparam import analytic_param, ck_param
    f = curve_branch(a, b)
    if kind == "curve-eval":
        return f.eval_array(np.linspace(1.0, 2.0, CURVE_GRID))
    if kind == "curve-analytic":
        return analytic_param.analytic_delta_parametrize(
            f, Fraction(1, 16), (1, 2))
    return ck_param.ck_parametrize_function(f, 1, CK1_INTERVAL)


def run_job(job, rundir):
    """Run one job; returns its record.  `wall` covers the call alone."""
    from smoothparam import cli
    rec = {"id": job["id"], "kind": job["kind"]}
    out, err = io.StringIO(), io.StringIO()
    result = None
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            _cwd(rundir):
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        try:
            if "argv" in job:
                rc = cli.main(list(job["argv"]))
            else:
                a, b = (Fraction(v) for v in job["curve"])
                result = _run_curve(job["kind"], a, b)
                rc = 0
        except Exception:  # a crash is a failed job, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        rec["wall"] = time.perf_counter() - t0
    rec["rc"] = rc
    rec["stdout"] = out.getvalue()[-2000:]
    rec["stderr"] = err.getvalue()[-2000:]
    rec["warnings"] = sum(issubclass(w.category, RuntimeWarning)
                          for w in caught)
    return rec, result


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


# -- output checks -------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(rundir, name):
    with open(os.path.join(rundir, name), "rb") as fh:
        return fh.read()


def _cubic(a, b, x):
    return np.sqrt(x ** 3 + float(a) * x + float(b))


def check_curve(job, result):
    """Branch values against sqrt(x^3 + a x + b); returns (failures, digest)."""
    a, b = (Fraction(v) for v in job["curve"])
    if job["kind"] == "curve-eval":
        xs = np.linspace(1.0, 2.0, CURVE_GRID)
        err = float(np.max(np.abs(result - _cubic(a, b, xs))))
        fails = [] if err <= 1e-9 else [f"branch value off by {err:.3g}"]
        return fails, _curve_digest(job, result)
    fails = []
    if not result.charts:
        fails.append("no charts")
    scale = float(result.normalization.get("scale", 1))
    shift = float(result.normalization.get("shift", 0))
    for i, ch in enumerate(result.charts):
        cert = ch.meta.get("certificate")
        if cert is not None and not cert.ok:
            fails.append(f"chart {i} certificate not ok")
        x0 = float(ch.psi(Fraction(0)))
        want = scale * float(_cubic(a, b, x0)) + shift
        got = float(ch.f_comp.eval(0.0))
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            fails.append(f"chart {i} value {got!r} != {want!r} at x={x0}")
    return fails, _curve_digest(job, result)


def _curve_digest(job, result):
    from smoothparam import serialize
    if job["kind"] == "curve-eval":
        return _sha(np.ascontiguousarray(result).tobytes())
    kind = "ck" if job["kind"] == "curve-ck1" else "analytic"
    text = serialize.dumps(serialize.parametrization_to_json(result, kind))
    return _sha(text.encode())


def output_digest(job, rec, rundir, result=None):
    """sha256 of what a job produced: its artifact (with its CSV), the
    output of `verify`, or a curves job's result; None after a non-zero
    exit.  Cheap, so later rounds compare it instead of re-checking."""
    if rec["rc"] != 0:
        return None
    if "curve" in job:
        return _curve_digest(job, result)
    if job["kind"] == "verify":
        return _sha(rec["stdout"].encode())
    data = _read(rundir, job["artifact"])
    csv = job.get("check", {}).get("csv")
    if csv:
        data += _read(rundir, csv)
    return _sha(data)


def check_cli(job, rec, rundir, expected_counts=None):
    """Independent checks of a CLI job's exit code and artifact."""
    from smoothparam import serialize
    fails = []
    defect = job.get("check", {}).get("defect")
    if defect is not None:
        return (_check_defect(job, rec, rundir, defect),
                output_digest(job, rec, rundir))
    if rec["rc"] != 0:
        return [f"exit {rec['rc']}: {rec['stderr'].strip()[-300:]}"], None
    if job["kind"] == "verify":
        if rec["stdout"].strip() != "pass":
            fails.append("verify did not print pass")
        return fails, output_digest(job, rec, rundir)
    data = _read(rundir, job["artifact"])
    doc = serialize.loads(data.decode())
    check = job.get("check", {})
    kind = job["kind"]
    if "charts" in check and len(doc["charts"]) != check["charts"]:
        fails.append(f"{len(doc['charts'])} charts, expected {check['charts']}")
    if not job["argv"][0].startswith("parametrize-"):
        # chart artifacts are re-checked by their own verify job
        res = serialize.verify_bundle(doc)
        fails += [f"verify: {m}" for m in res["failures"]]
    if kind == "remez-classical-d2" and abs(doc["R"] - 17) > 0.01 * 17:
        fails.append(f"classical Remez constant {doc['R']} not within 1% of 17")
    if kind.startswith("count"):
        want = (expected_counts or {}).get(job["id"])
        if want is None:
            want = _brute_count(job, rundir)
        if doc["count"] != want:
            fails.append(f"count {doc['count']}, brute force {want}")
        if "csv" in check:
            text = _read(rundir, check["csv"]).decode()
            for row in text.splitlines()[1:]:
                t, count, brute = row.split(",")
                if count != brute:
                    fails.append(f"csv t={t}: count {count} != {brute}")
    if kind == "entropy-doubling":
        for eps, h in doc["h_estimates"].items():
            if not 0.8 <= h <= 1.2:
                fails.append(f"doubling slope {h} at eps={eps} outside [0.8, 1.2]")
    if kind == "entropy-identity":
        hs = [r["h"] for r in doc["rows"]] + list(doc["h_estimates"].values())
        if max(hs) > 0.01:
            fails.append(f"identity entropy {max(hs)} above 0.01")
    return fails, output_digest(job, rec, rundir)


def _check_defect(job, rec, rundir, defect):
    """A known seed defect: it must fail exactly the documented way, or pass."""
    if rec["rc"] == 0:
        return []
    if rec["rc"] != defect["rc"] or defect["stderr"] not in rec["stderr"]:
        return [f"exit {rec['rc']}, not the known defect: "
                f"{rec['stderr'].strip()[-300:]}"]
    if job["kind"] == "entropy-polynomial":
        # the artifact must show the decrease the exit code reports
        from smoothparam import serialize
        doc = serialize.loads(_read(rundir, job["artifact"]).decode())
        col = sorted((r["n"], r["M_lower"]) for r in doc["rows"]
                     if abs(r["eps"] - 0.1) < 1e-12)
        if not any(b[1] < a[1] for a, b in zip(col, col[1:])):
            return ["exit 2 without a decreasing M_lower in the artifact"]
    return []


def _brute_count(job, rundir):
    """Point count from `bp.brute_force_points`, the repo's own oracle."""
    from smoothparam import bp, cli
    from smoothparam.funcs import RationalExpr
    from smoothparam.poly import Poly
    argv = job["argv"]
    t = int(argv[argv.index("--t") + 1])
    if "--spec" in argv:
        spec = SPECS[argv[argv.index("--spec") + 1]]
        f, interval, _ = cli._spec_function(spec)
    else:
        f, interval = RationalExpr(Poly([0, 0, 0, 1])), (-1, 1)
    return len(bp.brute_force_points(f, interval, t))


def classify(job, rec, failures):
    """ok | defect | failed."""
    if failures:
        return "failed"
    if job.get("check", {}).get("defect") and rec["rc"] != 0:
        return "defect"
    return "ok"


# -- seed-commit digests ---------------------------------------------------------

PROBES = [
    ("ck2-eps1/100", ["parametrize-ck", "--eps", "1/100"]),
    ("ck3-eps1/16", ["parametrize-ck", "--k", "3", "--eps", "1/16"]),
    ("analytic-eps1/100-delta1/16",
     ["parametrize-analytic", "--eps", "1/100", "--delta", "1/16"]),
    ("count-t120-d2", ["count-points", "--t", "120", "--d", "2"]),
    ("remez-classical-d2", ["remez", "--classical"]),
    ("entropy-doubling-n11", ["entropy", "--system", "doubling",
                              "--n-max", "11"]),
    ("approx-eps2^-10", ["approximate", "--eps", repr(2.0 ** -10)]),
    ("approx-slab-eps2^-10", ["approximate", "--eps", repr(2.0 ** -10),
                              "--slab"]),
]


def probe_digests(rundir):
    """{probe: sha256} for fixed inputs, to compare across commits."""
    out = {}
    for name, argv in PROBES:
        job = {"id": name, "kind": "probe", "argv": argv + ["--out", "p.json"]}
        rec, _ = run_job(job, rundir)
        out[name] = _sha(_read(rundir, "p.json")) if rec["rc"] == 0 \
            else f"exit {rec['rc']}"
    rec, values = run_job({"id": "curve", "kind": "curve-eval",
                           "curve": ["0", "1"]}, rundir)
    out["curve-eval-a0-b1"] = _sha(np.ascontiguousarray(values).tobytes()) \
        if rec["rc"] == 0 else f"exit {rec['rc']}"
    return out
