"""Versioned JSON artifacts for parametrizations, approximations, point
counts, norming reports, and entropy tables.

Rationals are serialized as "p/q" strings (never floats), floats are rounded
to a fixed precision before emission, and keys are sorted, so identical
inputs produce byte-identical artifacts.  `verify_bundle` re-checks a parsed
artifact: structural invariants always, and full certificate re-verification
on grids VERIFY_FACTOR times finer whenever the chart functions are
expressible in the serializable node language."""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .analytic_param import verify_a_chart_variation
from .approx import PATCH_SAMPLES, patch_error
from .charts import CK_TOLERANCE_FLOAT, Chart, verify_ck_chart
from .entropy import EntropyReport
from .errors import SchemaVersionMismatch
from .funcs import (AddExpr, ComposeExpr, FunctionExpr, MulExpr,
                    PowExpr, RationalExpr, SqrtExpr)
from .poly import Poly

SCHEMA = "smoothparam@1"
FLOAT_DIGITS = 12
VERIFY_FACTOR = 4       # verify re-samples each grid this many times finer


# -- primitives ----------------------------------------------------------------

def _int_to_str(n: int) -> str:
    """str(n) for ints of any size: past the digit limit, split n in two
    decimal halves and convert each."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + _int_to_str(-n)
        k = int(n.bit_length() * 0.30103) // 2
        hi, lo = divmod(n, 10 ** k)
        return _int_to_str(hi) + _int_to_str(lo).zfill(k)


def _str_to_int(s: str) -> int:
    """int(s) for decimal strings of any length, the inverse of _int_to_str."""
    try:
        return int(s)
    except ValueError:
        s = s.strip()
        sign, digits = (-1, s[1:]) if s[:1] == "-" else (1, s)
        if not (digits.isascii() and digits.isdigit()):
            raise
        k = len(digits) // 2
        return sign * (_str_to_int(digits[:-k]) * 10 ** k
                       + _str_to_int(digits[-k:]))


def frac_to_str(x) -> str:
    f = Fraction(x)
    return f"{_int_to_str(f.numerator)}/{_int_to_str(f.denominator)}"


def str_to_frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ValueError:
        num, sep, den = s.partition("/")
        if not sep:
            raise
        return Fraction(_str_to_int(num), _str_to_int(den))


def _fix_float(x: float) -> float:
    return float(f"{float(x):.{FLOAT_DIGITS}e}")


def _fix(obj):
    """Recursively clamp floats to the fixed precision."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return _fix_float(obj)
    if isinstance(obj, Fraction):
        return frac_to_str(obj)
    if isinstance(obj, dict):
        return {str(k): _fix(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fix(v) for v in obj]
    return obj


def poly_to_json(p: Poly) -> list:
    """The "p/q" strings of p's coefficients a_j/d, each reduced by one gcd."""
    out = []
    for a in p._a:
        g = math.gcd(a, p._d)
        out.append(f"{_int_to_str(a // g)}/{_int_to_str(p._d // g)}")
    return out


def _int_pair(s):
    """(p, q), q > 0, with p/q the rational s: a plain "p/q" of decimal
    digits (p signed, q nonzero) read as two integers, any other form, and
    any non-string, by str_to_frac."""
    if isinstance(s, str):
        p, sep, q = s.partition("/")
        digits = p[1:] if p[:1] == "-" else p
        if (sep and digits.isascii() and digits.isdigit() and q.isascii()
                and q.isdigit() and q.strip("0")):
            return _str_to_int(p), _str_to_int(q)
    f = str_to_frac(s)
    return f.numerator, f.denominator


def poly_from_json(cs: list) -> Poly:
    """The Poly of the rationals cs, put over the lcm of their denominators."""
    pairs = [_int_pair(c) for c in cs]
    m = math.lcm(*(q for _, q in pairs))
    return Poly([p * (m // q) for p, q in pairs], _d=m)


def number_to_json(x):
    if isinstance(x, (int, Fraction)):
        return frac_to_str(x)
    return _fix_float(float(x))


def number_from_json(x):
    if isinstance(x, str):
        return str_to_frac(x)
    return float(x)


# -- function expressions ------------------------------------------------------

def expr_to_json(e: FunctionExpr) -> dict:
    if isinstance(e, RationalExpr):
        return {"kind": "rational", "num": poly_to_json(e.num),
                "den": poly_to_json(e.den)}
    if isinstance(e, SqrtExpr):
        return {"kind": "sqrt", "inner": expr_to_json(e.inner)}
    if isinstance(e, AddExpr):
        return {"kind": "add", "terms": [expr_to_json(t) for t in e.terms]}
    if isinstance(e, MulExpr):
        return {"kind": "mul", "f": expr_to_json(e.f),
                "g": expr_to_json(e.g)}
    if isinstance(e, PowExpr):
        return {"kind": "pow", "f": expr_to_json(e.f), "n": e.n}
    if isinstance(e, ComposeExpr):
        return {"kind": "compose", "outer": expr_to_json(e.outer),
                "inner": expr_to_json(e.inner)}
    raise ValueError(f"expression node {type(e).__name__} is not serializable")


def expr_from_json(d: dict) -> FunctionExpr:
    kind = d["kind"]
    if kind == "rational":
        return RationalExpr(poly_from_json(d["num"]), poly_from_json(d["den"]))
    if kind == "const":     # a spec's constant: the degree-0 rational
        return RationalExpr(Poly([number_from_json(d["value"])]))
    if kind == "sqrt":
        return SqrtExpr(expr_from_json(d["inner"]))
    if kind == "add":
        return AddExpr(*[expr_from_json(t) for t in d["terms"]])
    if kind == "mul":
        return MulExpr(expr_from_json(d["f"]), expr_from_json(d["g"]))
    if kind == "pow":
        return PowExpr(expr_from_json(d["f"]), int(d["n"]))
    if kind == "compose":
        return ComposeExpr(expr_from_json(d["outer"]),
                           expr_from_json(d["inner"]))
    raise ValueError(f"unknown expression kind {kind!r}")


def _try_expr(e) -> dict:
    try:
        return expr_to_json(e)
    except ValueError:
        return {"kind": "opaque", "repr": type(e).__name__}


def _meta_to_json(meta: dict) -> dict:
    out = {}
    for k, v in meta.items():
        if isinstance(v, (str, int, bool)):
            out[k] = v
        elif isinstance(v, float):
            out[k] = _fix_float(v)
        elif isinstance(v, Fraction):
            out[k] = frac_to_str(v)
    return out


# -- charts and parametrizations -----------------------------------------------

def chart_to_json(ch: Chart) -> dict:
    return {"psi": poly_to_json(ch.psi),
            "f": _try_expr(ch.f_comp),
            "k": ch.k,
            "image": [number_to_json(v) for v in ch.image]
            if ch.image is not None else None,
            "bounds": {str(k): _fix_float(float(v))
                       for k, v in ch.bounds.items()},
            "meta": _meta_to_json(ch.meta)}


def chart_from_json(d: dict) -> Chart:
    f = None
    if d["f"].get("kind") != "opaque":
        f = expr_from_json(d["f"])
    return Chart(psi=poly_from_json(d["psi"]), f_comp=f, k=int(d["k"]),
                 image=tuple(number_from_json(v) for v in d["image"])
                 if d.get("image") else None,
                 bounds=dict(d["bounds"]),
                 meta=dict(d.get("meta", {})))


def parametrization_to_json(P, kind: str) -> dict:
    doc = {"schema": SCHEMA, "kind": f"{kind}-parametrization",
           "charts": [chart_to_json(c) for c in P.charts],
           "domain": [number_to_json(v) for v in P.domain],
           "normalization": _fix(P.normalization),
           "meta": _meta_to_json(P.meta)}
    if kind == "ck":
        doc["k"] = P.k
    else:
        doc["delta"] = frac_to_str(P.delta)
        doc["removed"] = [[number_to_json(a), number_to_json(b)]
                          for (a, b) in P.removed]
    return doc


def approximation_to_json(A, source=None) -> dict:
    return {"schema": SCHEMA, "kind": "approximation",
            "epsilon": _fix_float(A.epsilon), "route": A.route,
            "complexity": A.complexity,
            "source": _try_expr(source) if source is not None else None,
            "meta": _meta_to_json(A.meta),
            "patches": [{"dim": p.dim, "degree": p.degree,
                         "center": [number_to_json(c) for c in p.center],
                         "side": _fix_float(float(p.side)),
                         "source": p.source,
                         "sup_error": _fix_float(float(p.sup_error)),
                         "bound": _fix_float(float(p.bound)),
                         "coeffs": [poly_to_json(c) for c in p.coeffs]}
                        for p in A.patches]}


def count_report_to_json(t: int, d: int, points, cover: dict = None) -> dict:
    return {"schema": SCHEMA, "kind": "count-points", "t": t, "d": d,
            "count": len(points),
            "points": sorted([frac_to_str(x), frac_to_str(y)]
                             for (x, y) in points),
            "cover": _fix(cover) if cover else None}


def remez_report_to_json(rep) -> dict:
    return {"schema": SCHEMA, "kind": "remez",
            "R": _fix_float(rep.R),
            "Q_star": [_fix_float(float(v)) for v in rep.Q_star],
            "monomials": [list(m) for m in rep.monomials],
            "y_star": [_fix_float(float(v)) for v in rep.y_star],
            "meta": _fix(rep.meta)}


def entropy_report_to_json(rep) -> dict:
    return {"schema": SCHEMA, "kind": "entropy", "system": rep.system,
            "n_values": rep.n_values, "eps_values": _fix(rep.eps_values),
            "rows": _fix(rep.rows), "h_estimates": _fix(rep.h_estimates),
            "grid_spec": _fix(rep.grid_spec)}


def dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads(text: str) -> dict:
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA:
        raise SchemaVersionMismatch(
            f"artifact schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    return doc


# -- verification --------------------------------------------------------------

def _verify_charts(doc: dict, failures: list) -> None:
    analytic = doc["kind"].startswith("analytic")
    for i, cd in enumerate(doc["charts"]):
        tag = f"chart {i}"
        limit = cd["meta"].get("K", 1.0) if analytic else 1.0
        for order, val in cd["bounds"].items():
            if not val <= limit + CK_TOLERANCE_FLOAT:
                failures.append(f"{tag}: stored bound {val} at order {order} "
                                f"exceeds {limit}")
        if cd["f"].get("kind") == "opaque":
            continue
        ch = chart_from_json(cd)
        if analytic:
            kvar = ch.meta.get("Kvar")
            if kvar is None:
                failures.append(f"{tag}: no stored Kvar to re-measure")
                continue
            var = verify_a_chart_variation(ch, VERIFY_FACTOR)
            if not var <= float(kvar) * (1 + 1e-6):
                failures.append(f"{tag}: re-measured variation {var} "
                                f"exceeds stored {kvar}")
        else:
            rep = verify_ck_chart(ch, VERIFY_FACTOR)
            if not rep.ok:
                failures.append(f"{tag}: re-verification failed "
                                f"(max bound {rep.max_bound})")


def _verify_approximation(doc: dict, failures: list) -> None:
    src = doc.get("source")
    f = expr_from_json(src) if src and src.get("kind") != "opaque" else None
    eps = doc["epsilon"]
    for i, pd in enumerate(doc["patches"]):
        if not pd["sup_error"] <= eps * (1 + 1e-9):
            failures.append(f"patch {i}: stored error {pd['sup_error']} "
                            f"exceeds epsilon {eps}")
        cs = pd["coeffs"]
        if not (len(cs) == 2 and all(isinstance(c, list) for c in cs)):
            failures.append(f"patch {i}: coeffs are not the polynomials "
                            f"(psi, p)")
            continue
        # a slab patch's upper boundary (psi, p) is resampled like a graph
        # patch; its removed boxes are held to their stored bound only
        if f is None or (pd["dim"] == 2 and pd["source"] == "removed-box"):
            continue
        psi, poly = map(poly_from_json, cs)
        err = patch_error(f, poly, doc["route"],
                          number_from_json(pd["center"][0]), pd["side"],
                          VERIFY_FACTOR * PATCH_SAMPLES, psi=psi)
        if not err <= eps * (1 + 1e-6):
            failures.append(f"patch {i}: resampled error {err} exceeds {eps}")


def _verify_remez(doc: dict, failures: list) -> None:
    """R >= 1, and Q*(y*) = R to 1e-9 of sum |c_j Q_j|, far above the
    rounding of the stored digits.  Z is not stored, so |Q*| <= 1 on Z is
    not re-checked."""
    R = doc["R"]
    if not R >= 1.0 - 1e-9:
        failures.append(f"norming constant {R} below 1")
        return
    y0, y1 = doc["y_star"]
    Q, monos = doc["Q_star"], doc["monomials"]
    terms = [q * y0 ** i * y1 ** j for q, (i, j) in zip(Q, monos)]
    value = math.fsum(terms)
    if len(Q) != len(monos) or not (
            abs(value - R) <= 1e-9 * math.fsum(map(abs, terms))):
        failures.append(f"witness Q*(y*) = {value} is not R = {R}")


def verify_bundle(doc) -> dict:
    """Re-check a parsed (or raw-text) artifact.  Returns
    {"ok": bool, "kind": ..., "failures": [...]}."""
    if isinstance(doc, str):
        doc = loads(doc)
    if doc.get("schema") != SCHEMA:
        raise SchemaVersionMismatch(
            f"artifact schema {doc.get('schema')!r}, expected {SCHEMA!r}")
    failures: list = []
    kind = doc["kind"]
    if kind.endswith("parametrization"):
        _verify_charts(doc, failures)
    elif kind == "approximation":
        _verify_approximation(doc, failures)
    elif kind == "entropy":
        failures += EntropyReport(doc["system"], doc["n_values"],
                                  doc["eps_values"], doc["rows"],
                                  doc["h_estimates"]).check_invariants()
    elif kind == "remez":
        _verify_remez(doc, failures)
    elif kind == "count-points":
        if doc["count"] != len(doc["points"]):
            failures.append("stored count disagrees with point list")
    else:
        failures.append(f"unknown artifact kind {kind!r}")
    return {"ok": not failures, "kind": kind, "failures": failures}
