"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# A few cheap jobs per workload, enough to produce every metric.
SMOKE_KINDS = {"charts": {"ck2", "verify"},
               "numerics": {"count", "count-spec", "entropy-identity",
                            "entropy-polynomial"},
               "curves": {"curve-eval"}}
_MAKE_JOBS = workloads.make_jobs


def _smoke_jobs(workload):
    jobs = _MAKE_JOBS(workload, 7, 1)
    if workload == "charts":
        build = next(j for j in jobs if j["kind"] == "ck2")
        return [build] + [j for j in jobs
                          if j.get("artifact_of") == build["artifact"]]
    picked, seen = [], set()
    for j in jobs:
        if j["kind"] in SMOKE_KINDS[workload] and j["kind"] not in seen:
            picked.append(j)
            seen.add(j["kind"])
    return picked


def _worker_doc(tmp_path, monkeypatch, workload, tag, *extra):
    monkeypatch.setenv("PERFBENCH_SPAWN_T", repr(time.time()))
    monkeypatch.setattr(workloads, "make_jobs",
                        lambda w, s, b: _smoke_jobs(w))
    result = tmp_path / f"{tag}.json"
    worker.main(["--workload", workload, "--seed", "7", "--blocks", "1",
                 "--rundir", str(tmp_path / tag), "--result", str(result),
                 *extra])
    return json.loads(result.read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_metric(workload, tmp_path, monkeypatch,
                                       capsys):
    plain = _worker_doc(tmp_path, monkeypatch, workload, "plain")
    ref = run.write_reference(str(tmp_path / "ref.json"), plain)
    again = _worker_doc(tmp_path, monkeypatch, workload, "again",
                        "--reference", ref)
    summ, _, _ = run.report_untraced([plain, again])
    traced = _worker_doc(tmp_path, monkeypatch, workload, "traced",
                         "--trace", "--reference", ref)
    tsumm, _, _ = run.report_traced(plain, traced)
    out = capsys.readouterr().out
    lines = [ln.split() for ln in out.splitlines()]
    for name, unit in run.END_TO_END + run.per_layer_units():
        assert any(ln[:1] == [name + ":"] and ln[2:3] == [unit]
                   for ln in lines), name
    assert summ["failed"] == 0 and tsumm["failed"] == 0
    assert [j["digest"] for j in plain["jobs"]] == \
        [j["digest"] for j in traced["jobs"]]
    if workload == "numerics":
        outcomes = {j["kind"]: j["outcome"] for j in plain["jobs"]}
        assert outcomes["entropy-polynomial"] == "defect"


def _run_one(job, rundir):
    rec, _ = workloads.run_job(job, str(rundir))
    return rec


def test_injected_chart_fault_is_a_failure(tmp_path):
    workloads.write_specs(str(tmp_path))
    build = {"id": "b", "kind": "ck2", "artifact": "a.json",
             "argv": ["parametrize-ck", "--eps", "1/100", "--out", "a.json"],
             "check": {"charts": 4}}
    verify = {"id": "v", "kind": "verify", "argv": ["verify", "a.json"],
              "artifact_of": "a.json"}
    assert workloads.check_cli(build, _run_one(build, tmp_path),
                               str(tmp_path))[0] == []
    path = tmp_path / "a.json"
    doc = json.loads(path.read_text())
    key = next(iter(doc["charts"][0]["bounds"]))
    doc["charts"][0]["bounds"][key] = 2.0
    path.write_text(json.dumps(doc))
    rec = _run_one(verify, tmp_path)
    fails, _ = workloads.check_cli(verify, rec, str(tmp_path))
    assert fails and workloads.classify(verify, rec, fails) == "failed"


def test_wrong_expected_count_is_a_failure(tmp_path):
    job = {"id": "c", "kind": "count", "artifact": "c.json",
           "argv": ["count-points", "--t", "60", "--out", "c.json"]}
    rec = _run_one(job, tmp_path)
    assert workloads.check_cli(job, rec, str(tmp_path))[0] == []
    true = json.loads((tmp_path / "c.json").read_text())["count"]
    fails, _ = workloads.check_cli(job, rec, str(tmp_path),
                                   expected_counts={"c": true + 1})
    assert fails and workloads.classify(job, rec, fails) == "failed"


def test_every_binding_site_is_wrapped():
    import smoothparam.cli  # noqa: F401
    pkg = {n: m for n, m in sys.modules.items()
           if n == "smoothparam" or n.startswith("smoothparam.")}
    originals = [getattr(pkg["smoothparam." + mod], attr)
                 for mod, attr, _ in tracing.FUNCTIONS]
    sites = [(m, k) for m in pkg.values() for k, v in vars(m).items()
             if any(v is o for o in originals)]
    # e.g. verify_ck_chart is bound in charts, ck_param, serialize and the
    # package namespace
    assert len(sites) > len(originals)
    tr = tracing.Tracer().install()
    try:
        for mod, key in sites:
            assert getattr(mod, key).traced_original is not None, key
        for mod in pkg.values():
            for key, val in vars(mod).items():
                assert not any(val is o for o in originals), (mod, key)
        funcs = pkg["smoothparam.funcs"]
        for _, cls, meth, _ in tracing.METHODS:
            assert hasattr(getattr(getattr(funcs, cls), meth),
                           "traced_original")
        for cls in tracing._expr_classes(funcs):
            if "eval_complex" in cls.__dict__:
                assert hasattr(cls.__dict__["eval_complex"], "traced_original")
    finally:
        tr.uninstall()
    for mod, key in sites:
        assert not hasattr(getattr(mod, key), "traced_original"), key


def test_tail_has_ten_samples_above():
    value, pct, n = run.tail(list(range(40)))
    assert value == 29 and sum(x > value for x in range(40)) == 10
    assert pct == 75.0 and n == 40


def test_round_that_differs_from_the_checked_one_is_a_failure(tmp_path):
    job = {"id": "c", "kind": "count", "artifact": "c.json",
           "argv": ["count-points", "--t", "60", "--out", "c.json"]}
    rec = _run_one(job, tmp_path)
    digest = workloads.output_digest(job, rec, str(tmp_path))
    for want, outcome in ((digest, "ok"), ("0" * 64, "failed")):
        ref = {"jobs": [{"id": "c", "rc": 0, "digest": want,
                         "failures": [], "outcome": "ok"}]}
        recs = [dict(rec)]
        worker.check_all([job], recs, {}, str(tmp_path), ref)
        assert recs[0]["outcome"] == outcome


def test_refuses_to_run_without_the_package(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--workload", "charts", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
