"""Batch front door: one subcommand per pipeline, JSON artifacts, CSV sweeps.

Config resolution: defaults < JSON config file (--config or the
SMOOTHPARAM_CONFIG env var) < explicit command-line flags.  Unknown config
keys are rejected with the offending key named.  Exit codes: 0 pass, 2
verification failure, 1 error."""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from . import serialize
from .analytic_param import (analytic_delta_parametrize,
                             hyperbola_analytic_charts)
from .approx import analytic_approximate, ck_approximate
from .bp import brute_force_sweep, enumerate_points, hypersurface_cover
from .ck_param import ck_parametrize_function, hyperbola_parametrization
from .entropy import entropy_sweep, system_zoo
from .errors import PreconditionFailed, SmoothParamError
from .funcs import RationalExpr, hyperbola_branch
from .poly import Poly
from .remez import (check_measure, empirical_remez_constant, hyperbola_curve,
                    hyperbola_remez_query, remez_parametrization)
from .serialize import dumps, expr_from_json, loads, verify_bundle


def _frac(s) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"{s!r} has a zero denominator") from None


def _float(s) -> float:
    try:
        return float(_frac(s))
    except OverflowError:
        raise PreconditionFailed(f"{s!r} is outside the float range") from None


@contextlib.contextmanager
def _reading(path=None):
    """PreconditionFailed for a missing key or mistyped value, naming path
    if given (`main` names a spec's path, by `_naming`)."""
    try:
        yield
    except (AttributeError, IndexError, KeyError, TypeError,
            ZeroDivisionError) as exc:
        raise PreconditionFailed(f"{path}: {exc!r}" if path
                                 else repr(exc)) from None


@contextlib.contextmanager
def _naming(spec):
    """A PreconditionFailed raised while reading or building on the spec file
    (if one was given), with its path in front."""
    try:
        yield
    except PreconditionFailed as exc:
        if spec is None:
            raise
        raise PreconditionFailed(f"{spec}: {exc}") from None


def _load_spec(path):
    """(f, (lo, hi), spec) from the spec file at path: {"builtin":
    "hyperbola", ...} or {"function": <expr json>, "interval": [lo, hi], ...}."""
    allowed = {"builtin", "eps", "function", "interval",
               "declared_singularities"}
    with open(path) as fh, _reading():
        spec = json.load(fh)
        for key in spec:
            if key not in allowed:
                raise ValueError(f"unknown spec key {key!r}")
        return _spec_function(spec)


def _spec_function(spec):
    # a copy of the spec with its declared singularities as complex numbers
    spec = dict(spec, declared_singularities=[
        complex(*map(float, s)) if isinstance(s, list) else complex(s)
        for s in spec.get("declared_singularities", [])])
    if spec.get("builtin") == "hyperbola":
        e = _frac(spec.get("eps", "1/100"))
        return hyperbola_branch(e), (Fraction(-1), -e), spec
    f = expr_from_json(spec["function"])
    lo, hi = (_frac(v) for v in spec["interval"])
    return f, (lo, hi), spec


def _write(path, text):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_and_verify(args, doc) -> int:
    text = dumps(doc)
    _write(getattr(args, "out", None), text)
    res = verify_bundle(loads(text))
    if not res["ok"]:
        for msg in res["failures"]:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 2
    return 0


# -- subcommand runners --------------------------------------------------------

def _run_parametrize_ck(args) -> int:
    if args.spec:
        f, (lo, hi), spec = _load_spec(args.spec)
        if spec.get("builtin"):
            P = hyperbola_parametrization(_frac(spec.get("eps", args.eps)),
                                          k=args.k)
        else:
            P = ck_parametrize_function(f, args.k, (lo, hi))
    else:
        P = hyperbola_parametrization(_frac(args.eps), k=args.k)
    doc = serialize.parametrization_to_json(P, "ck")
    return _emit_and_verify(args, doc)


def _run_parametrize_analytic(args) -> int:
    if args.spec:
        f, (lo, hi), spec = _load_spec(args.spec)
        P = analytic_delta_parametrize(
            f, _frac(args.delta), (lo, hi),
            declared_singularities=spec["declared_singularities"] or None)
    else:
        P = hyperbola_analytic_charts(_frac(args.eps), _frac(args.delta))
    doc = serialize.parametrization_to_json(P, "analytic")
    return _emit_and_verify(args, doc)


def _run_approximate(args) -> int:
    if args.spec:
        f, (lo, hi), spec = _load_spec(args.spec)
    else:
        e = _frac(args.curve_eps)
        f, lo, hi = (RationalExpr(Poly([e * e]), Poly([0, 1])),
                     Fraction(1, 2 ** 26), Fraction(1))
    if args.route == "ck":
        A = ck_approximate(f, (lo, hi), args.eps, args.sigma)
    else:
        A = analytic_approximate(
            f, (lo, hi), args.eps, slab=args.slab,
            declared_singularities=(spec["declared_singularities"] or None)
            if args.spec else [0j])
    doc = serialize.approximation_to_json(A, source=f)
    return _emit_and_verify(args, doc)


def _run_count_points(args) -> int:
    if args.spec:
        f, (lo, hi), _ = _load_spec(args.spec)
    else:
        f, lo, hi = RationalExpr(Poly([0, 0, 0, 1])), Fraction(-1), Fraction(1)
    pts = enumerate_points(f, (lo, hi), args.t)
    cover = None
    if args.d:
        cov = hypersurface_cover(f, (lo, hi), args.t, args.d)
        cover = {"rtil": cov["rtil"], "ball_count": cov["ball_count"],
                 "occupied_balls": cov["occupied_balls"],
                 "hypersurface_count": cov["hypersurface_count"]}
    rc = 0
    if args.csv:
        lines = ["t,count,brute_count"]
        sweep = brute_force_sweep(f, (lo, hi), args.t)
        for t in range(1, args.t + 1):
            got = enumerate_points(f, (lo, hi), t)
            ref = next(sweep)
            lines.append(f"{t},{len(got)},{len(ref)}")
            if set(got) != ref:
                rc = 2
        _write(args.csv, "\n".join(lines) + "\n")
    doc = serialize.count_report_to_json(args.t, args.d or 0, pts, cover)
    emit_rc = _emit_and_verify(args, doc)
    return rc or emit_rc


def _run_remez(args) -> int:
    import numpy as np
    if args.classical:
        if args.samples < 1:
            raise PreconditionFailed(
                f"samples must be >= 1, got {args.samples}")
        check_measure(args.mu)
        ys = np.linspace(-1, 1, args.samples)
        zs = np.linspace(-1, args.mu - 1, args.samples)
        Y = [(float(v), 0.0) for v in ys]
        Z = [(float(v), 0.0) for v in zs]
    else:
        Y, Z = hyperbola_remez_query(_float(args.eps), args.samples)
    rep = empirical_remez_constant(Y, Z, args.d1)
    doc = serialize.remez_report_to_json(rep)
    if args.parametrize:
        res = remez_parametrization(hyperbola_curve(_frac(args.eps)))
        doc["parametrization"] = serialize._fix(
            {k: v for k, v in res.items() if k != "charts"})
    return _emit_and_verify(args, doc)


def _run_entropy(args) -> int:
    zoo = system_zoo()
    if args.system not in zoo:
        raise ValueError(f"unknown system {args.system!r}; "
                         f"choose from {sorted(zoo)}")
    sys_ = zoo[args.system]
    if not 0 <= args.n_min <= args.n_max <= sys_.iteration_cap:
        raise PreconditionFailed(f"n_values {args.n_min}..{args.n_max} "
                                 f"must lie in 0..{sys_.iteration_cap}")
    ns = list(range(args.n_min, args.n_max + 1))
    eps = [_float(e) for e in args.eps_list.split(",")]
    rep = entropy_sweep(sys_, ns, eps)
    if args.csv:
        _write(args.csv, rep.to_csv())
    return _emit_and_verify(args, serialize.entropy_report_to_json(rep))


def _run_verify(args) -> int:
    with open(args.path) as fh, _reading(args.path):
        res = verify_bundle(loads(fh.read()))
    for msg in res["failures"]:
        print(f"FAIL: {msg}", file=sys.stderr)
    print("pass" if res["ok"] else "fail")
    return 0 if res["ok"] else 2


# -- config / dispatch ---------------------------------------------------------

@functools.cache            # one parser per process; parse_args keeps no state
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="smoothparam")
    ap.add_argument("--config", default=None,
                    help="JSON config file with per-subcommand defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="JSON artifact path")

    p = sub.add_parser("parametrize-ck")
    common(p)
    p.add_argument("--spec", default=None)
    p.add_argument("--eps", default="1/100")
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(run=_run_parametrize_ck)

    p = sub.add_parser("parametrize-analytic")
    common(p)
    p.add_argument("--spec", default=None)
    p.add_argument("--eps", default="1/100")
    p.add_argument("--delta", default="1/16")
    p.set_defaults(run=_run_parametrize_analytic)

    p = sub.add_parser("approximate")
    common(p)
    p.add_argument("--spec", default=None)
    p.add_argument("--route", choices=("ck", "analytic"), default="analytic")
    p.add_argument("--eps", type=float, default=2.0 ** -10)
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--slab", action="store_true")
    p.add_argument("--curve-eps", default="1/67108864")
    p.set_defaults(run=_run_approximate)

    p = sub.add_parser("count-points")
    common(p)
    p.add_argument("--spec", default=None)
    p.add_argument("--t", type=int, default=100)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--csv", default=None, help="emit a t-sweep CSV")
    p.set_defaults(run=_run_count_points)

    p = sub.add_parser("remez")
    common(p)
    p.add_argument("--d1", type=int, default=2)
    p.add_argument("--eps", default="1/10")
    p.add_argument("--classical", action="store_true")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--parametrize", action="store_true")
    p.set_defaults(run=_run_remez)

    p = sub.add_parser("entropy")
    common(p)
    p.add_argument("--system", default="identity")
    p.add_argument("--n-min", type=int, default=1)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--eps-list", default="1/10,1/20")
    p.add_argument("--csv", default=None)
    p.set_defaults(run=_run_entropy)

    p = sub.add_parser("verify")
    common(p)
    p.add_argument("path")
    p.set_defaults(run=_run_verify)
    return ap


def _apply_config(ap: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    args = ap.parse_args(argv)
    if args.config is None:
        args.config = os.environ.get("SMOOTHPARAM_CONFIG")
    if not args.config:
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    sub = next(a for a in ap._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a for a in sub.choices[args.command]._actions
             if a.option_strings and a.dest != "help"}
    # the flags given after the subcommand, as "--k 3", "--k=3" or an
    # abbreviation that argparse has already found unambiguous
    given = {t.split("=", 1)[0] for t in argv[argv.index(args.command) + 1:]
             if t.startswith("--") and t != "--"}
    with _reading(args.config):
        section = conf.get(args.command, conf if len(conf) and
                           args.command not in conf else {})
        for key, val in section.items():
            action = flags.get(key.replace("-", "_"))
            if action is None:
                raise ValueError(f"unknown config key {key!r} "
                                 f"for subcommand {args.command}")
            # explicit command-line flags win over config-file values
            if not any(o.startswith(g) for o in action.option_strings
                       for g in given):
                setattr(args, action.dest,
                        _config_value(args.config, key, val, action))
    return args


def _config_value(path, key, val, action):
    """val as its flag would parse it from the command line: a switch takes
    true or false; a valued flag takes a string or a number, read as its
    str() through the flag's type (so 3.5 is no int, and 0.01 is the string
    "0.01" that `_frac` reads as 1/100) and within its choices."""
    if action.nargs == 0:
        if not isinstance(val, bool):
            raise PreconditionFailed(
                f"{path}: config key {key!r} is a switch, got {val!r}")
        return val
    if isinstance(val, bool) or not isinstance(val, (str, int, float)):
        raise PreconditionFailed(f"{path}: config key {key!r} needs a "
                                 f"string or a number, got {val!r}")
    try:
        val = (action.type or str)(str(val))
    except ValueError:
        raise PreconditionFailed(
            f"{path}: config key {key!r}: {val!r} does not parse "
            f"as {action.type.__name__}") from None
    if action.choices is not None and val not in action.choices:
        raise PreconditionFailed(f"{path}: config key {key!r} must be one "
                                 f"of {list(action.choices)}, got {val!r}")
    return val


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    try:
        args = _apply_config(ap, argv)
        with _naming(getattr(args, "spec", None)):
            return args.run(args)
    except SmoothParamError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
