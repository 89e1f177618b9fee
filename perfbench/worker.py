"""One round of a workload in a fresh process: set-up, the timed loop, checks.

    python3 perfbench/worker.py --workload charts --seed 1 --blocks 1 \
        --rundir .perfbench/run --result .perfbench/run.json [--trace] \
        [--reference .perfbench/round0.json]

`run.py` starts it with the BLAS thread counts set to 1 and the spawn time in
PERFBENCH_SPAWN_T, so `setup_s` runs from process start to the first timed
job.  The loop is closed with one client: each job starts when the previous
one has returned.  Without --reference every output is checked against the
oracles in workloads.py; with it, each job's exit code and output digest
must equal those of the reference round, which was checked that way.

Host speed: on a shared 2-vCPU VM the same code runs up to 1.8 times
slower for seconds to minutes at a time, on both vCPUs at once and in CPU
time as well as wall time.  So the loop times a fixed reference probe at
least every REF_EVERY_S, and each job's wall time is also given calibrated:
scaled by REF_NOMINAL_S over the mean of the probes just before and just
after it.  The probe runs no smoothparam code, so a change to the program
moves only the job's own time.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REF_EVERY_S = 0.5
# reference_probe() at full speed (the fastest 5% of 2,900 probes) on a
# 2-vCPU x86 VM (Intel Xeon, 2.1 GHz, Python 3.11.7, numpy 2.4.6);
# calibrated seconds are seconds at that speed.
REF_NOMINAL_S = 0.0015
K3_EXACT = ("charts.measure_chart_bounds.exact", "poly.max_abs_ratio_on_grid",
            "poly.max_abs_on_rational_grid")


def _parse(argv):
    ap = argparse.ArgumentParser(prog="worker.py")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--blocks", type=int, required=True)
    ap.add_argument("--rundir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", default=None)
    return ap.parse_args(argv)


def _fractions():
    for _ in range(40):
        x = Fraction(0)
        for i in range(1, 40):
            x += Fraction(1, i * i + 1)


def _complex_loop():
    z = 0.3 + 0.1j
    for _ in range(6000):
        z = z * z * 0.5 + 0.1j
        z = z / (abs(z) + 1)


def _small_arrays():
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(300):
        a = np.sqrt(a * a + 1.0) - 0.5


def reference_probe():
    """The host's speed right now, in seconds: the geometric mean over three
    fixed loops, each the best of three, of the kinds of work the jobs do
    (exact rationals, complex floats in Python, small numpy arrays)."""
    logs = 0.0
    for loop in (_fractions, _complex_loop, _small_arrays):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            loop()
            best = min(best, time.perf_counter() - t0)
        logs += math.log(best)
    return math.exp(logs / 3)


def run_loop(jobs, rundir, tracer=None):
    """Run jobs in order, probing the host's speed between them; returns
    (records, API results by job id)."""
    records, results, before = [], {}, []
    probes = [(time.perf_counter(), reference_probe())]
    for job in jobs:
        if time.perf_counter() - probes[-1][0] >= REF_EVERY_S:
            probes.append((time.perf_counter(), reference_probe()))
        before.append(len(probes) - 1)
        token = tracer.begin_job(job["id"]) if tracer else None
        rec, result = workloads.run_job(job, rundir)
        if tracer:
            tracer.end_job(token)
        records.append(rec)
        if result is not None:
            results[job["id"]] = result
    probes.append((time.perf_counter(), reference_probe()))
    for rec, k in zip(records, before):
        ref = (probes[k][1] + probes[k + 1][1]) / 2
        rec["wall_cal"] = rec["wall"] * REF_NOMINAL_S / ref
    return records, results


def check_all(jobs, records, results, rundir, reference=None):
    """Adds failures, outcome and digest to every record."""
    ref = {r["id"]: r for r in reference["jobs"]} if reference else None
    for job, rec in zip(jobs, records):
        if ref is not None:
            want = ref[job["id"]]
            rec["digest"] = workloads.output_digest(job, rec, rundir,
                                                    results.get(job["id"]))
            if (rec["rc"], rec["digest"]) == (want["rc"], want["digest"]):
                rec["failures"] = want["failures"]
                rec["outcome"] = want["outcome"]
            else:
                rec["failures"] = [f"exit {rec['rc']}, output {rec['digest']}"
                                   f": the checked round had exit "
                                   f"{want['rc']}, output {want['digest']}"]
                rec["outcome"] = "failed"
            continue
        if "curve" in job:
            if rec["rc"] == 0:
                fails, digest = workloads.check_curve(job, results[job["id"]])
            else:
                fails, digest = [rec["stderr"].strip()[-300:]], None
        else:
            fails, digest = workloads.check_cli(job, rec, rundir)
        rec["failures"] = fails
        rec["digest"] = digest
        rec["outcome"] = workloads.classify(job, rec, fails)


def _k3_exact_share(tracer, jobs):
    """Share of the k = 3 jobs' wall time in the exact grid check."""
    k3_out = {j["artifact"] for j in jobs if j["kind"] == "ck3"}
    ids = {j["id"] for j in jobs
           if j["kind"] == "ck3" or j.get("artifact_of") in k3_out}
    if not ids:
        return 0.0
    selfs = tracer.self_times()
    grid = wall = 0.0
    for sid, _, name, t0, t1, job in tracer.spans:
        if job in ids:
            if name in K3_EXACT:
                grid += selfs[sid]
            elif name == "job":
                wall += t1 - t0
    return grid / wall


def main(argv=None):
    t_spawn = float(os.environ["PERFBENCH_SPAWN_T"])
    args = _parse(sys.argv[1:] if argv is None else argv)
    sys.path.insert(0, os.path.abspath("src"))
    import smoothparam.cli  # noqa: F401  (every CLI call pays this import)
    jobs = workloads.make_jobs(args.workload, args.seed, args.blocks)
    os.makedirs(args.rundir, exist_ok=True)
    workloads.write_specs(args.rundir)
    workloads.warm_up(args.workload)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer().install()
    setup_s = time.time() - t_spawn
    setup_cal = setup_s * REF_NOMINAL_S / reference_probe()

    t0 = time.perf_counter()
    records, results = run_loop(jobs, args.rundir, tracer)
    elapsed = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    doc = {"setup_s": setup_s, "setup_cal": setup_cal, "blocks": args.blocks,
           "elapsed": elapsed, "rss_mb": rss_mb}
    if tracer:
        tracer.uninstall()
        doc["layer"] = tracer.layer_metrics()
        doc["k3_exact_share"] = _k3_exact_share(tracer, jobs)
        sums = tracer.job_self_sums()
        doc["self_sum_error"] = max(
            (abs(s - w) / w for s, w in sums.values() if w > 0), default=0.0)
        doc["trace_file"] = args.rundir.rstrip("/") + "-trace.json"
        tracer.write(doc["trace_file"],
                     {"jobs": {j["id"]: j["kind"] for j in jobs}})
    reference = None
    if args.reference:
        with open(args.reference) as fh:
            reference = json.load(fh)
    check_all(jobs, records, results, args.rundir, reference)
    if tracer:
        doc["probes"] = workloads.probe_digests(args.rundir)
    for rec in records:
        del rec["stdout"]
        rec["stderr"] = rec["stderr"][-500:]
    doc["jobs"] = records
    _dump(args.result, doc)
    return 0


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main())
