"""Per-layer spans and counters for the traced benchmark run.

The wrappers live here, outside the package: `install()` replaces each
traced function at every place it is bound.  `from .x import f` gives each
importing module its own reference to `f`, so every `smoothparam.*` module
attribute that *is* the original function is swapped for the one wrapper.
Methods are patched on their classes.

A span is (id, parent id, name, start, end, job).  Spans stay in memory
until `write()`.  A span's self time is its duration minus its children's;
calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (module, attribute, span name); classifiers and counters are in _HOOKS.
FUNCTIONS = [
    ("cli", "main", "cli.main"),
    ("serialize", "verify_bundle", "serialize.verify_bundle"),
    ("serialize", "dumps", "serialize.dumps"),
    ("serialize", "loads", "serialize.loads"),
    ("ck_param", "ck_parametrize_function", "ck_param.ck_parametrize_function"),
    ("ck_param", "monotone_subdivision", "ck_param.monotone_subdivision"),
    ("ck_param", "kill_derivative_step", "ck_param.kill_derivative_step"),
    ("charts", "verify_ck_chart", "charts.verify_ck_chart"),
    ("charts", "measure_chart_bounds", "charts.measure_chart_bounds"),
    ("poly", "max_abs_ratio_on_grid", "poly.max_abs_ratio_on_grid"),
    ("poly", "max_abs_on_rational_grid", "poly.max_abs_on_rational_grid"),
    ("poly", "isolate_roots", "poly.isolate_roots"),
    ("poly", "complex_roots", "poly.complex_roots"),
    ("funcs", "isolate_real_zeros", "funcs.isolate_real_zeros"),
    ("funcs", "singular_locus", "funcs.singular_locus"),
    ("bivar", "resultant_y", "bivar.resultant_y"),
    ("analytic_param", "analytic_delta_parametrize",
     "analytic_param.analytic_delta_parametrize"),
    ("analytic_param", "dyadic_partition", "analytic_param.dyadic_partition"),
    ("analytic_param", "verify_a_chart_variation",
     "analytic_param.verify_a_chart_variation"),
    ("approx", "analytic_approximate", "approx.analytic_approximate"),
    ("approx", "ck_approximate", "approx.ck_approximate"),
    ("approx", "taylor_polynomial", "approx.taylor_polynomial"),
    ("bp", "enumerate_points", "bp.enumerate_points"),
    ("bp", "brute_force_points", "bp.brute_force_points"),
    ("bp", "hypersurface_cover", "bp.hypersurface_cover"),
    ("bp", "on_hypersurface", "bp.on_hypersurface"),
    ("simplex", "norming_lp", "simplex.norming_lp"),
    ("simplex", "simplex_maximize", "simplex.simplex_maximize"),
    ("remez", "empirical_remez_constant", "remez.empirical_remez_constant"),
    ("remez", "curve_gradient_floor", "remez.curve_gradient_floor"),
    ("remez", "remez_parametrization", "remez.remez_parametrization"),
    ("entropy", "entropy_sweep", "entropy.entropy_sweep"),
    ("entropy", "covering_number", "entropy.covering_number"),
]

# (module, class, method, span name)
METHODS = [
    ("funcs", "FunctionExpr", "derivative_chain", "funcs.derivative_chain"),
    ("funcs", "BranchExpr", "eval_array", "funcs.BranchExpr.eval_array"),
    ("funcs", "BranchTracker", "eval_real", "funcs.BranchTracker.eval_real"),
    ("funcs", "BranchTracker", "eval_path", "funcs.BranchTracker.eval_path"),
]

# Spans named by what the call did: measure_chart_bounds by the mode it
# returns, isolate_real_zeros by its input, covering_number by meta["path"].
SPLIT = {"charts.measure_chart_bounds": ("exact", "float"),
         "funcs.isolate_real_zeros": ("sturm", "sampled"),
         "entropy.covering_number": ("circle-linear", "toral-linear",
                                     "grid-greedy")}

# Span names with .calls and .self_s metrics; cli.main reports self_s only.
SPAN_NAMES = sorted(
    [n for *_, n in FUNCTIONS + METHODS if n not in SPLIT and n != "cli.main"]
    + [f"{n}.{part}" for n, parts in SPLIT.items() for part in parts])

COUNTERS = [
    ("serialize.artifact_bytes", "bytes"),
    ("ck_param.charts", "count"),
    ("ck_param.cert_ok_ratio", "ratio"),
    ("poly.exact_grid_points", "count"),
    ("funcs.eval_complex.points", "count"),
    ("funcs.BranchExpr.eval_array.points", "count"),
    ("analytic_param.charts", "count"),
    ("approx.patches", "count"),
    ("bp.candidates", "count"),
    ("simplex.rounds_per_lp", "rounds/lp"),
]


def _count_charts(key):
    def hook(tr, args, kwargs, result):
        tr.counters[key] += len(result.charts)
    return hook


def _grid_points(n_index):
    def hook(tr, args, kwargs, result):
        tr.counters["poly.exact_grid_points"] += int(args[n_index]) + 1
    return hook


def _artifact_bytes(tr, args, kwargs, result):
    tr.counters["serialize.artifact_bytes"] += len(result.encode())


def _patches(tr, args, kwargs, result):
    tr.counters["approx.patches"] += len(result.patches)


def _candidates(tr, args, kwargs, result):
    lo, hi = args[1]
    t = args[2]
    tr.counters["bp.candidates"] += max(
        0, math.floor(Fraction(hi) * t) - math.ceil(Fraction(lo) * t) + 1)


def _eval_array_points(tr, args, kwargs, result):
    tr.counters["funcs.BranchExpr.eval_array.points"] += len(args[1])


def _cert(tr, args, kwargs, result):
    if tr.open["ck_param.ck_parametrize_function"]:
        tr.counters["ck_param.cert_calls"] += 1
        tr.counters["ck_param.cert_ok"] += bool(result.ok)


# A hook returns a suffix for the span name, or None.
_HOOKS = {
    "serialize.dumps": _artifact_bytes,
    "ck_param.ck_parametrize_function": _count_charts("ck_param.charts"),
    "analytic_param.analytic_delta_parametrize":
        _count_charts("analytic_param.charts"),
    "charts.verify_ck_chart": _cert,
    "charts.measure_chart_bounds": lambda tr, a, kw, r: r[1],
    "poly.max_abs_on_rational_grid": _grid_points(1),
    "poly.max_abs_ratio_on_grid": _grid_points(2),
    "funcs.isolate_real_zeros":
        lambda tr, a, kw, r: "sturm" if a[0].as_rational() is not None
        else "sampled",
    "funcs.BranchExpr.eval_array": _eval_array_points,
    "approx.analytic_approximate": _patches,
    "approx.ck_approximate": _patches,
    "bp.enumerate_points": _candidates,
    "entropy.covering_number": lambda tr, a, kw, r: r["meta"]["path"],
}

# Spans whose open count the hooks read.
_TRACK_OPEN = {"ck_param.ck_parametrize_function"}


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.open = defaultdict(int)
        self.stack = []
        self.job = None
        self._next_id = 1
        self._patched = []          # (owner, attribute, original)
        self._ec_depth = 0

    # -- installation ----------------------------------------------------------

    def install(self):
        """Wrap every traced function at every binding site; returns self."""
        import smoothparam.cli  # noqa: F401  (loads every package module)
        from smoothparam import funcs
        pkg = [m for name, m in sorted(sys.modules.items())
               if name == "smoothparam" or name.startswith("smoothparam.")]
        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules["smoothparam." + modname], attr)
            wrapper = self._wrap(orig, name)
            for mod in pkg:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, key, wrapper)
        for modname, cls, meth, name in METHODS:
            owner = getattr(sys.modules["smoothparam." + modname], cls)
            self._set(owner, meth, self._wrap(owner.__dict__[meth], name))
        for cls in _expr_classes(funcs):
            if "eval_complex" in cls.__dict__:
                self._set(cls, "eval_complex",
                          self._wrap_eval_complex(cls.__dict__["eval_complex"]))
        return self

    def uninstall(self):
        for owner, key, orig in reversed(self._patched):
            setattr(owner, key, orig)
        self._patched.clear()

    def _set(self, owner, key, value):
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _wrap(self, orig, name):
        tr = self
        hook = _HOOKS.get(name)
        track = name in _TRACK_OPEN

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            sid = tr._next_id
            tr._next_id += 1
            parent = stack[-1] if stack else 0
            stack.append(sid)
            if track:
                tr.open[name] += 1
            t0 = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                t1 = time.perf_counter()
                stack.pop()
                if track:
                    tr.open[name] -= 1
                tr.spans.append((sid, parent, name, t0, t1, tr.job))
                raise
            t1 = time.perf_counter()
            stack.pop()
            if track:
                tr.open[name] -= 1
            label = name
            if hook is not None:
                suffix = hook(tr, args, kwargs, result)
                if suffix:
                    label = f"{name}.{suffix}"
            tr.spans.append((sid, parent, label, t0, t1, tr.job))
            return result

        wrapper.traced_original = orig
        return wrapper

    def _wrap_eval_complex(self, orig):
        """Counts top-level complex evaluations; no span (one per point)."""
        tr = self

        @functools.wraps(orig)
        def wrapper(obj, z):
            if tr._ec_depth == 0:
                tr.counters["funcs.eval_complex.points"] += 1
            tr._ec_depth += 1
            try:
                return orig(obj, z)
            finally:
                tr._ec_depth -= 1

        wrapper.traced_original = orig
        return wrapper

    # -- job spans -------------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        sid = self._next_id
        self._next_id += 1
        self.stack.append(sid)
        return sid, time.perf_counter()

    def end_job(self, token):
        sid, t0 = token
        t1 = time.perf_counter()
        self.stack.pop()
        self.spans.append((sid, 0, "job", t0, t1, self.job))
        self.job = None
        return t1 - t0

    # -- reduction -------------------------------------------------------------

    def self_times(self):
        """{span id: self seconds}."""
        child = defaultdict(float)
        for sid, parent, _, t0, t1, _ in self.spans:
            child[parent] += t1 - t0
        return {sid: (t1 - t0) - child[sid]
                for sid, _, _, t0, t1, _ in self.spans}

    def layer_metrics(self):
        """{metric name: value} for every span name and counter."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        names = {}
        for sid, parent, name, *_ in self.spans:
            calls[name] += 1
            self_s[name] += selfs[sid]
            names[sid] = name
        out = {"cli.main.self_s": self_s["cli.main"]}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        c = self.counters
        for key, _ in COUNTERS:
            out[key] = c[key]
        out["ck_param.cert_ok_ratio"] = (
            c["ck_param.cert_ok"] / c["ck_param.cert_calls"]
            if c["ck_param.cert_calls"] else 1.0)
        rounds = sum(1 for _, parent, name, *_ in self.spans
                     if name == "simplex.simplex_maximize"
                     and names.get(parent) == "simplex.norming_lp")
        lps = calls["simplex.norming_lp"]
        out["simplex.rounds_per_lp"] = rounds / lps if lps else 0.0
        return out

    def job_self_sums(self):
        """{job: (sum of self times of its spans, job span duration)}."""
        selfs = self.self_times()
        total = defaultdict(float)
        wall = {}
        for sid, parent, name, t0, t1, job in self.spans:
            total[job] += selfs[sid]
            if name == "job":
                wall[job] = t1 - t0
        return {job: (total[job], wall[job]) for job in wall}

    def write(self, path, extra=None):
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "spans": [[sid, parent, index[name], round(t0, 7),
                          round(t1, 7), job]
                         for sid, parent, name, t0, t1, job in self.spans],
               "counters": dict(self.counters)}
        doc.update(extra or {})
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _expr_classes(funcs):
    seen, todo = [], [funcs.FunctionExpr]
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return seen


def per_layer_units():
    """[(metric name, unit)] in report order."""
    out = [("cli.main.self_s", "s")]
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    return out + COUNTERS
