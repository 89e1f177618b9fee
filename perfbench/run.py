"""smoothparam benchmark: one workload, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload charts --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from `src/`.
Workloads are `charts`, `numerics` and `curves` (see README.md).

--trace 0 prints the end-to-end metrics.  The seed's job list runs ROUNDS
times, each round in a fresh process, and the metrics pool every job run of
every round.  Times are calibrated for the host's speed (see worker.py);
the uncalibrated figures are printed beside them.  Only the first round
checks outputs against the oracles; later rounds must reproduce its exit
codes and output digests.  `setup_s` is the median over the rounds.

--trace 1 runs one round untraced, then again on the same jobs with
per-layer wrappers installed, and prints the per-layer metrics,
`trace.overhead`, the byte-identity of the two rounds' outputs and the
artifact digests of fixed probe jobs against `seed_digests.json`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Exit code 2 without a result when `src/smoothparam`
is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 3
RUN_BUDGET_S = 170      # every worker of one run must end within this
OUT_DIR = ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [("setup_s", "s"), ("jobs_per_s", "jobs/s"), ("job_s.p50", "s"),
              ("job_s.tail", "s"), ("ok_share", "ratio"),
              ("rss_peak_mb", "MB")]
TRACE_EXTRA = [("trace.overhead", "ratio"),
               ("serialize.outputs_changed", "count"),
               ("numpy.nonfinite_warnings", "count"),
               ("charts.k3_exact_grid_share", "ratio")]


def per_layer_units():
    return tracing.per_layer_units() + TRACE_EXTRA


def _parse(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class WorkerFailed(RuntimeError):
    pass


def spawn(args, tag, *extra):
    """Run one round of worker.py in a fresh process; returns its result
    document."""
    timeout = args.deadline - time.time()
    rundir = os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-{tag}")
    result = rundir + ".json"
    shutil.rmtree(rundir, ignore_errors=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PERFBENCH_SPAWN_T"] = repr(time.time())
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--blocks", str(args.blocks), "--rundir", rundir,
           "--result", result, *extra]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker {tag} ran past the {RUN_BUDGET_S} s "
                           "budget") from exc
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {tag} exited {proc.returncode}")
    with open(result) as fh:
        doc = json.load(fh)
    os.remove(result)
    return doc


def tail(walls):
    """(value, percentile, n): the highest percentile with >= 10 samples
    above it; with 10 samples or fewer, the fastest."""
    xs = sorted(walls)
    n = len(xs)
    if n <= 10:
        return xs[0], 0.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(rounds, calibrated=True):
    """The end-to-end metrics over every job run of every round; times are
    calibrated unless told otherwise."""
    key = "wall_cal" if calibrated else "wall"
    runs = [j for r in rounds for j in r["jobs"]]
    walls = [j[key] for j in runs]
    ok = sum(j["outcome"] == "ok" for j in runs)
    key = "setup_cal" if calibrated else "setup_s"
    return {"setup_s": statistics.median(r[key] for r in rounds),
            "jobs_per_s": ok / sum(walls),
            "job_s.p50": statistics.median(walls),
            "job_s.tail": tail(walls)[0],
            "ok_share": ok / len(runs),
            "rss_peak_mb": statistics.median(r["rss_mb"] for r in rounds)}


def environment(args):
    import numpy
    import scipy
    src = os.path.join("src", "smoothparam")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "commit": _commit(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "src_lines": lines}


def _commit():
    try:
        with open(os.path.join(".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _summary(rounds):
    """Counts over every job run of every round."""
    runs = [j for r in rounds for j in r["jobs"]]
    return {"attempted": len(runs),
            "failed": sum(j["outcome"] == "failed" for j in runs),
            "known_defects": sum(j["outcome"] == "defect" for j in runs),
            "warnings": sum(j["warnings"] for j in rounds[0]["jobs"])}


def _print_failures(rounds):
    for k, r in enumerate(rounds):
        for j in r["jobs"]:
            if j["outcome"] == "failed":
                print(f"FAILED round {k} {j['id']}: "
                      f"{'; '.join(j['failures'])[:400]}")


def write_reference(path, doc):
    """Writes a checked round's exit codes and digests for later rounds."""
    keep = ("id", "rc", "digest", "failures", "outcome")
    with open(path, "w") as fh:
        json.dump({"jobs": [{k: j[k] for k in keep} for j in doc["jobs"]]}, fh)
    return path


def _ref_path(args):
    return os.path.join(OUT_DIR, f"{args.workload}-s{args.seed}-ref.json")


def run_untraced(args):
    rounds = [spawn(args, "round0")]
    ref = write_reference(_ref_path(args), rounds[0])
    try:
        for k in range(1, ROUNDS):
            rounds.append(spawn(args, f"round{k}", "--reference", ref))
    finally:
        os.remove(ref)
    return report_untraced(rounds)


def report_untraced(rounds):
    metrics = end_to_end(rounds)
    raw = end_to_end(rounds, calibrated=False)
    summ = _summary(rounds)
    _print_failures(rounds)
    n = len(rounds[0]["jobs"])
    _, pct, runs = tail([j["wall_cal"] for r in rounds for j in r["jobs"]])
    print(f"jobs: {n} in {rounds[0]['blocks']} block(s), {len(rounds)} "
          f"round(s) of {[round(r['elapsed'], 2) for r in rounds]} s; "
          f"{summ['attempted']} runs, {summ['failed']} failed, "
          f"{summ['known_defects']} known seed defects")
    print(f"numpy.nonfinite_warnings: {summ['warnings']}")
    print(f"fail_share: "
          f"{(summ['failed'] + summ['known_defects']) / summ['attempted']:.4f}")
    print(f"setup_s samples: {[round(r['setup_cal'], 4) for r in rounds]}")
    print("uncalibrated: " + ", ".join(
        f"{name} {raw[name]:.6g}" for name in
        ("setup_s", "jobs_per_s", "job_s.p50", "job_s.tail")))
    for name, unit in END_TO_END:
        note = f"  (p{pct:.1f} of {runs} job runs)" \
            if name == "job_s.tail" else ""
        print(f"{name}: {metrics[name]:.6g} {unit}{note}")
    return summ, metrics, END_TO_END


def run_traced(args):
    plain = spawn(args, "plain")
    ref = write_reference(_ref_path(args), plain)
    try:
        traced = spawn(args, "traced", "--trace", "--reference", ref)
    finally:
        os.remove(ref)
    return report_traced(plain, traced)


def report_traced(plain, traced):
    summ = _summary([traced])
    _print_failures([traced])
    rate = [end_to_end([d])["jobs_per_s"] for d in (plain, traced)]
    overhead = 1.0 - rate[1] / rate[0]
    changed_vs_plain = [a["id"] for a, b in zip(plain["jobs"], traced["jobs"])
                        if a["digest"] != b["digest"]]
    with open(os.path.join(HERE, "seed_digests.json")) as fh:
        seed = json.load(fh)["digests"]
    changed_vs_seed = sorted(k for k, v in traced["probes"].items()
                             if seed.get(k) != v)
    metrics = dict(traced["layer"])
    metrics.update({"trace.overhead": overhead,
                    "serialize.outputs_changed": len(changed_vs_seed),
                    "numpy.nonfinite_warnings": summ["warnings"],
                    "charts.k3_exact_grid_share": traced["k3_exact_share"]})
    print(f"jobs: {summ['attempted']} attempted, {summ['failed']} failed, "
          f"{summ['known_defects']} known seed defects")
    print(f"trace file: {traced['trace_file']}")
    print(f"traced outputs differing from untraced: {changed_vs_plain}")
    print(f"self-time sum vs job wall, worst relative error: "
          f"{traced['self_sum_error']:.3g}")
    print(f"serialize.outputs_changed vs seed digests: {changed_vs_seed}")
    units = per_layer_units()
    for name, unit in units:
        print(f"{name}: {metrics[name]:.6g} {unit}")
    if changed_vs_plain or traced["self_sum_error"] > 1e-6:
        summ["failed"] += 1
    return summ, metrics, units


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    args.deadline = time.time() + RUN_BUDGET_S
    args.blocks = workloads.blocks_for(args.seconds, ROUNDS)
    if not os.path.isfile(os.path.join("src", "smoothparam", "cli.py")):
        print("error: src/smoothparam not found; run from the repository root",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    print(json.dumps({"env": environment(args)}))
    try:
        summ, metrics, units = (run_traced if args.trace else run_untraced)(args)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": summ["failed"] == 0,
        "attempted": summ["attempted"],
        "failed": summ["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
