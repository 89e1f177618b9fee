"""Record perfbench runs in a BENCH_<label>.json file.

    python3 tools/bench_record.py --label mylabel --workload numerics \
        --seeds 201 202 203 [--trace 0] \
        [--checkout parent=../parent-copy --checkout change=.]

Runs `perfbench/run.py` once per (workload, seed, checkout), from each
checkout's root, for the `run_seconds` that BENCHMARK.json declares.  It
keeps every run's `env` line, its final JSON result line and the
uncalibrated figures it prints, with the checkout's git rev (`+dirty` when
its tree has uncommitted changes) and its `src/smoothparam` line count.
Each seed runs every checkout, in an order reversed from one seed to the
next, so two checkouts give before/after pairs run on one host, each side
first in half of them.  The
file is written to the current directory and rewritten after every run,
so an interrupted session keeps the runs it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys


def _git(path, *args):
    try:
        return subprocess.run(["git", "-C", path, *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return ""


def _rev(path):
    rev = _git(path, "rev-parse", "HEAD") or "unknown"
    dirty = _git(path, "status", "--porcelain", "--untracked-files=no")
    return rev + ("+dirty" if dirty else "")


def _src_lines(path):
    src = os.path.join(path, "src", "smoothparam")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def _run_seconds():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def run_one(path, workload, seed, seconds, trace):
    """One perfbench run from the checkout at path: (env, result, raw), env
    and result each the parsed JSON line, or None where the run printed
    none, and raw the printed uncalibrated figures by name."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True)
    env = result = None
    raw = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            doc = json.loads(line)
            if "env" in doc:
                env = doc["env"]
            else:
                result = doc
        elif line.startswith("uncalibrated: "):
            raw = {name: float(v) for name, v in (
                item.rsplit(" ", 1) for item in line[14:].split(", "))}
    if result is None:
        sys.stderr.write(proc.stderr)
    return env, result, raw


def _parse(argv):
    ap = argparse.ArgumentParser(prog="bench_record.py")
    ap.add_argument("--label", required=True)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkout", action="append", default=[],
                    metavar="NAME=PATH",
                    help="a checkout to run (repeatable); default: change=.")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(sys.argv[1:] if argv is None else argv)
    checkouts = [c.split("=", 1) for c in args.checkout] or [["change", "."]]
    seconds = _run_seconds()
    doc = {"label": args.label, "seconds": seconds, "trace": args.trace,
           "runs": []}
    out = f"BENCH_{args.label}.json"
    for workload in args.workload:
        for i, seed in enumerate(args.seeds):
            for name, path in checkouts[::-1] if i % 2 else checkouts:
                env, result, raw = run_one(path, workload, seed, seconds,
                                           args.trace)
                doc["runs"].append({
                    "checkout": name, "rev": _rev(path),
                    "src_lines": _src_lines(path), "workload": workload,
                    "seed": seed, "env": env, "result": result,
                    "uncalibrated": raw})
                metrics = (result or {}).get("metrics", {})
                shown = {k: metrics[k]["value"] for k in
                         ("jobs_per_s", "serialize.outputs_changed")
                         if k in metrics}
                print(f"{workload} seed {seed} {name}: correct "
                      f"{(result or {}).get('correct')} {shown}", flush=True)
                with open(out, "w") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
