"""Algebraic branches of y^2 = x^3 + a x + b and of cubic fibres: the
batched corrector and its exact fixed-point sweep against the point-by-point
tracker it replaced (kept here, in scalar Python arithmetic, as the oracle),
its kernels against the oracle's, the tracker's start rule against a linear
scan, values that do not depend on the order or repeats of a call's
points or on how P's terms were spelled, the cache cap, the Rouche disk
test of its sheet guard (with the displacement test, the whole guard)
against np.roots and against exactly known roots, within the radius it
certified, and on a step of one ulp, byte-identity of a fixed grid
evaluation and how rarely it falls back to halving or single steps there
and on disk rows, values against the closed form and, on grids up to
x = 10^6, against the correctly rounded root, the typed errors at a
non-finite x, a non-finite seed, a walk past the round cap and a fibre
that overflows, a NaN residual that is not convergence, and C^1 and C^2
builds end to end."""

import cmath
import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from smoothparam import funcs
from smoothparam.analytic_param import analytic_delta_parametrize
from smoothparam.bivar import BivarPoly, _pack
from smoothparam.ck_param import ck_parametrize_function
from smoothparam.charts import CIRCLE_RADII, circle_sup
from smoothparam.errors import (BranchJump, EvaluationAtSingularity,
                                FibreOverflow, PathNearSingularity,
                                SmoothParamError)
from smoothparam.funcs import (_U, BranchExpr, BranchTracker, _disk_test,
                               _newton, _npdiv, _polyval, singular_locus)
from smoothparam.poly import Poly, isolate_roots
from smoothparam.serialize import dumps, parametrization_to_json

# sha256 of eval_array on y^2 = x^3 + 1 over np.linspace(1, 2, 4096), as
# computed by the linear-scan tracker this one replaced
CUBIC_GRID_SHA256 = \
    "e3091dc0bcb1814a8ab9f9d9f16f9b0ba94f960c1b2d5ff655722d5fba5d0da3"
# sha256 of the k=2 artifact of that branch over [1, 2], as computed by the
# tracker that ran np.roots at every step its cheap test failed, with order
# 0 of f measured as ('f', 0) in each chart's bounds
CUBIC_C2_SHA256 = \
    "9b01c18e7185d03743bdd4c65c5b8364deb6eeb2e5cfce7d28368be157254e50"
# sha256 of the analytic artifact (delta 1/16 over [1, 2]: a real grid and
# complex disk rows) and of the k=1 artifact over [1, 5/4] of the branch of
# y^2 = x^3 - x/4 + 15/4, as computed by the corrector that worked on the
# real axis in complex (real, imag) pairs, the latter with ('f', 0) in its
# chart's bounds and no identity normalization stored
CUBIC_ANALYTIC_SHA256 = \
    "b9ed364a7536cc65fd4f3fc0769dde66dc1d78217d00a54b92e0c9943583b895"
CUBIC_C1_SHA256 = \
    "1c41f6685c6a80600b54921c40745cbb37626590667bf6c8c8aa4dc66a8c824f"


def _cubic_branch(a=0, b=1):
    P = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): -F(a), (0, 0): -F(b)})
    return BranchExpr(P, (1.0, math.sqrt(float(1 + a + b))))


# -- the oracle: the point-by-point tracker the sweep replaced -----------------

def _horner(cs, w):
    """sum cs[i] * w^(n-1-i) in Python complex arithmetic."""
    y = 0j
    for c in cs:
        y = y * w + c
    return y


def _cdiv(a, b):
    """a / b for b != 0 by numpy's complex-division formula (Smith's method
    through a reciprocal), which rounds differently from Python's `/`."""
    if abs(b.real) >= abs(b.imag):
        rat = b.imag / b.real
        scl = 1.0 / (b.real + b.imag * rat)
        return complex((a.real + a.imag * rat) * scl,
                       (a.imag - a.real * rat) * scl)
    rat = b.real / b.imag
    scl = 1.0 / (b.imag + b.real * rat)
    return complex((a.real * rat + a.imag) * scl, (a.imag * rat - a.real) * scl)


def _disk_radius(cs, w, wn):
    """Scalar Rouche disk test (see funcs._disk_test), in Python complex
    arithmetic: the radius r = max(2 |wn - w|, 4 (|b_0| + 8(n+3) u B_0) /
    |b_1|) if sum cs[j] y^j has exactly one root within r of wn, else
    None."""
    n = len(cs) - 1
    try:
        b = cs[::-1].tolist()               # descending, Python complex
        h = [abs(c) for c in b]
        aw = abs(wn)
        for k in range(n):                  # b[n - k] becomes b_k
            for i in range(1, n + 1 - k):
                b[i] = b[i] + wn * b[i - 1]
                h[i] = h[i] + aw * h[i - 1]
        if b[n - 1] == 0:
            return None
        r = max(2 * abs(wn - w),
                4 * (abs(b[n]) + 8 * (n + 3) * _U * h[n]) / abs(b[n - 1]))
        lhs = abs(b[n - 1]) * r
        rhs, big = abs(b[n]), h[n] + h[n - 1] * r
        eta = (n + 3) ** 2 * 2.0 ** -1070
        grow, rk = 2 * max(1.0, aw) * max(1.0, r), r
        for k in range(2, n + 1):
            rk *= r
            rhs += abs(b[n - k]) * rk
            big += h[n - k] * rk
        for _ in range(n):
            eta *= grow
        return r if lhs > rhs + 8 * (n + 3) * _U * big + eta else None
    except OverflowError:
        return None


def _one_root_in_disk(cs, w, wn) -> bool:
    return _disk_radius(cs, w, wn) is not None


def _coeffs_complex(P, x):
    """P.y_poly_coeffs at a complex x or array x, as one complex array."""
    x = np.asarray(x, dtype=complex)
    return _pack(*P.y_poly_coeffs((x.real, x.imag)))


def _scalar_newton(cs, w0):
    """Newton's method on sum cs[j] y^j from w0 in Python complex
    arithmetic; None if it fails."""
    p = cs[::-1].tolist()
    dp = [c * k for k, c in enumerate(cs.tolist())][:0:-1]
    w = w0
    for _ in range(50):
        dv = _horner(dp, w)
        if dv == 0:
            return None
        step = _cdiv(_horner(p, w), dv)
        w = w - step
        if abs(step) <= 1e-15 * max(1.0, abs(w)):
            break
    res = abs(_horner(p, w))
    if not res <= funcs.CONTINUATION_RESIDUAL:
        # the rounding scale of Horner's rule, where the absolute test fails
        H = 0.0
        for c in p:
            H = H * abs(w) + abs(c)
        if not (math.isfinite(H) and res <= 16 * len(p) * _U * H):
            return None
    return w


def _scan_start(known, x):
    """The point of `known` that a new x continues from, by a linear scan:
    the nearest in rounded distance, on a tie the one below x, and of those
    on that side the nearest exactly, which is x's neighbour there."""
    return min(known, key=lambda k: (abs(k - x), k > x, abs(F(k) - F(x))))


class _Oracle:
    """The point-by-point tracker that the sweep replaced: every point
    continued on its own by the scalar corrector, the cache a dict.  A real call takes its
    points in increasing order, each new one from `_scan_start` over the
    cached keys and the call's earlier points, and caches it while the cache
    holds fewer than CONTINUATION_CACHE_CAP keys.  As in the tracker, a
    whole step (as long as the distance left, not halved) lands on its
    target, and a target whose fibre coefficients are not all finite fails
    before the walk starts."""

    def __init__(self, P, seed):
        self.P = P
        self.seed = (complex(seed[0]), complex(seed[1]))
        self.singularities = singular_locus(P)
        self._real_cache = {self.seed[0].real: self.seed[1]}
        self.halvings = 0

    def _min_sing_dist(self, z):
        return min((abs(z - s) for s in self.singularities), default=math.inf)

    @staticmethod
    def _on_sheet(cs, w, wn, step):
        return abs(wn - w) <= abs(step) or _one_root_in_disk(cs, w, wn)

    def _advance(self, z0, w0, z1):
        floor = funcs.CONTINUATION_STEP_FLOOR
        with np.errstate(all="ignore"):
            if not np.isfinite(_coeffs_complex(self.P, z1)).all():
                raise FibreOverflow(f"overflow at {z1}")
        z, w = z0, w0
        d = self._min_sing_dist(z)
        remaining, rounds = z1 - z, 0
        while abs(remaining) > 0:
            step_len = min(abs(remaining),
                           max(d / 2, floor * max(1.0, abs(z))))
            step = remaining / abs(remaining) * step_len
            whole = step_len == abs(remaining)
            while True:
                zn = z1 if whole else z + step
                dn = self._min_sing_dist(zn)
                if dn < 10 * floor:
                    raise PathNearSingularity(f"near {zn}")
                rounds += 1
                if rounds > funcs.CONTINUATION_ROUND_CAP:
                    raise BranchJump(f"no value at {z1}")
                cs = _coeffs_complex(self.P, zn)
                wn = _scalar_newton(cs, w)
                if wn is not None and self._on_sheet(cs, w, wn, step):
                    break
                if abs(step) / 2 < floor * max(1.0, abs(z)):
                    raise BranchJump(f"near {zn}")
                step /= 2
                whole = False
                self.halvings += 1
            z, w, d = zn, wn, dn
            remaining = z1 - z
        return w

    def eval_real(self, x, call):
        """The value at x, a point of a call whose earlier points (none
        above x) and values are the dict `call`, which x then joins."""
        xf = float(x)
        known = {**self._real_cache, **call}
        if xf not in known:
            near = _scan_start(known, xf)
            known[xf] = self._advance(complex(near), known[near], complex(xf))
            if len(self._real_cache) < funcs.CONTINUATION_CACHE_CAP:
                self._real_cache[xf] = known[xf]
        call[xf] = known[xf]
        return known[xf]

    def eval_path(self, path):
        out, (z, w) = [], self.seed
        for p in path:
            w = self._advance(z, w, complex(p))
            z = complex(p)
            out.append(w)
        return out


def _oracle_eval(t, xs, rat=None):
    """BranchExpr.eval_array as it was, over the oracle tracker t."""
    if np.iscomplexobj(xs):
        rows = xs.reshape(-1, xs.shape[-1]).tolist()
        ws = [w for row in rows for w in t.eval_path(row)]
        if rat is not None:
            zs = [z for row in rows for z in row]
            ws = [rat(z, w) for z, w in zip(zs, ws)]
        return np.array(ws, dtype=complex).reshape(xs.shape)
    if not np.all(np.isfinite(xs)):
        raise EvaluationAtSingularity("non-finite x")
    out, call = np.empty_like(xs, dtype=float), {}
    for i in np.argsort(xs):
        w = t.eval_real(xs[i], call)
        if abs(w.imag) > 1e-8:
            raise EvaluationAtSingularity("left the real line")
        out[i] = w.real if rat is None else rat(float(xs[i]), w.real)
    return out


def _outcome(fn):
    try:
        return fn(), None
    except (BranchJump, EvaluationAtSingularity, FibreOverflow,
            PathNearSingularity, ZeroDivisionError) as e:
        return None, type(e)


_KEYS = st.one_of(
    st.integers(-8, 8).map(lambda i: i / 4),           # equidistant neighbours
    st.sampled_from([1.0, 2.0, 2.0 ** -60, 2.0 ** -61,  # ties after rounding
                     1e308, -1e308]),                   # distances past 1e308
    st.floats(-1e-15, 1e-15),
    st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(_KEYS, min_size=1, max_size=40),
       st.lists(_KEYS, min_size=1, max_size=20))
@example([2.0, 2.0 ** -61, 2.0 ** -60], [1.0])
@example([2.0 ** -60, 2.0, 2.0 ** -61], [1.0])
@example([0.0], [2.0 ** -60, 1.5, 2.0 ** -61])
@example([0.75, 1.25, 1.25, 0.75], [1.0])
@example([-1e308, 1e308], [0.0])
@example([-1e308, 1e308], [-5e307, 1.5e308])
def test_starts_match_a_linear_scan(keys, xs):
    # each new point of a call continues from the point that a linear scan
    # of the cached keys and the call's earlier points finds: 1.0 ties with
    # 2^-61, 2^-60 and 2.0 after rounding, and 1.5 with 2^-61 and 2^-60;
    # 0.0 ties with -1e308 and 1e308, and 1.5e308 is inf from -1e308
    t = BranchTracker(BivarPoly({(1, 0): 1, (0, 2): -1}), (4.0, 2.0))
    t._keys = np.array(sorted(set(keys)))       # a cache of just these keys
    t._vals = np.arange(1, len(t._keys) + 1) * (1 + 1j)
    X = np.array(sorted(set(xs) - set(keys)))
    assume(X.size)
    zs, w0, prev = t._starts(X)
    cache = dict(zip(t._keys.tolist(), t._vals.tolist()))
    X = X.tolist()
    for i, x in enumerate(X):
        want = _scan_start([*cache, *X[:i]], x)
        assert repr(complex(zs[i])) == repr(complex(want))
        assert prev[i] == (want not in cache)
        if prev[i]:
            assert repr(want) == repr(X[i - 1])
        else:
            assert w0[i] == cache[want]


_MODERATE = st.floats(-1e6, 1e6)


@given(_MODERATE, _MODERATE, _MODERATE, _MODERATE)
def test_cdiv_rounds_like_numpy(ar, ai, br, bi):
    assume(br or bi)
    a, b = complex(ar, ai), complex(br, bi)
    assert repr(_cdiv(a, b)) == repr(complex(np.complex128(a) / np.complex128(b)))


@given(st.lists(_MODERATE, min_size=1, max_size=5), _MODERATE)
def test_horner_on_the_real_axis_rounds_like_polyval(cs, x):
    want = complex(np.polyval(np.array(cs, dtype=complex), complex(x)))
    assert repr(_horner([complex(c) for c in cs], complex(x))) == repr(want)


_SMALL = st.floats(-4, 4)
_COMPLEX = st.builds(complex, _SMALL, _SMALL)


@st.composite
def _fibre_polys(draw):
    """Random integer P(x, y) with degree 2..4 in y and a constant leading
    y-coefficient, through the origin so (0, 0) seeds a tracker."""
    degy = draw(st.integers(2, 4))
    cs = {(i, j): draw(st.integers(-5, 5))
          for i in range(3) for j in range(degy) if (i, j) != (0, 0)}
    cs[(0, degy)] = draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1]))
    return BivarPoly(cs)


# |wn - w|: the tracker runs the disk test only past its cheap test, where
# |wn - w| > |step| >= continuation_step_floor = 1e-12; np.roots, the
# oracle, places roots only to about 1e-16 absolute, so smaller disks would
# test numpy rather than the disk test
_GAPS = st.builds(cmath.rect, st.floats(1e-9, 4), st.floats(-4, 4))


def _pair(a):
    a = np.asarray(a, dtype=complex)
    return a.real, a.imag


def _disk(cs, w, wn):
    """funcs._disk_test at one point."""
    with np.errstate(all="ignore"):
        return bool(_disk_test(_pair(cs[:, None]), _pair([w]), _pair([wn]))[0])


@given(_fibre_polys(), _COMPLEX, _COMPLEX, _GAPS)
@example(BivarPoly({(0, 2): 1, (1, 1): 1, (0, 1): -4, (1, 0): 1}),
         0.5, 1.0, 0.1)
def test_disk_test_accepts_only_steps_the_roots_guard_accepts(P, zn, w0, dw):
    # wn is the corrector's output, as in the tracker; w is the previous
    # value, dw away.  Whenever the disk test certifies the step, np.roots
    # finds exactly one root within the radius r >= 2 |wn - w| it certified,
    # so |wn - w| is at most half the distance from wn to any other root:
    # the np.roots guard it replaced would accept the same step.
    t = BranchTracker(P, (0.0, 0.0))
    wn, conv, _ = t._correct(np.array([w0]), np.array([complex(zn)]),
                             np.array([0.0]))
    assume(conv[0])
    cs, wn = _coeffs_complex(P, zn), complex(wn[0])
    w = wn + dw
    if not _disk(cs, w, wn):
        return
    r = _disk_radius(cs, w, wn)
    assert r is not None and r >= 2 * abs(wn - w)
    dist = sorted(abs(x - wn) for x in
                  np.roots(np.trim_zeros(cs, trim="b")[::-1]))
    assert dist[0] < r <= dist[1]
    assert abs(wn - w) <= 0.5 * dist[1]


_DYADIC = st.integers(-16, 16).map(lambda i: i / 4)


@given(st.lists(st.tuples(_DYADIC, _DYADIC), min_size=2, max_size=4),
       _DYADIC, st.floats(-5, 5), st.integers(0, 3), st.integers(-4, 4),
       st.booleans())
@example([(-1.75, 0.0), (-1.75, 0.0)], 0.0, -1.5550169881059093, 0, -4, False)
@example([(-0.75, 0.0), (2.0, 0.0)], 0.0, -1.7276204341315262, 0, 0, True)
@example([(-1.5, 0.25), (1.0, -0.5)], 0.5, 0.0, 1, 0, True)
@example([(-3.5, 1.0), (-2.75, 0.5)], -2.0, 0.19690728606587182, 1, 1, False)
def test_disk_test_against_exact_roots(lines, zn, wn, pick, ulps, up):
    # P is a product of lines y = a + c x, so the fibre over the dyadic zn
    # has the exact roots a + c zn and float coefficients without rounding.
    # w puts the circle |y - wn| = 2 |wn - w| through one root, give or take
    # a few ulps, where only the rounding margin keeps the test honest.  The
    # roots are counted within the radius the test certified, which its
    # floor can make larger than 2 |wn - w|.
    P = BivarPoly({(0, 0): 1})
    for a, c in lines:
        P = P * BivarPoly({(0, 1): 1, (0, 0): -F(a), (1, 0): -F(c)})
    roots = [F(a) + F(c) * F(zn) for a, c in lines]
    cs = _coeffs_complex(P, zn)
    assert cs.tolist() == [float(c) for c in P.y_poly_at(F(zn)).coeffs]
    gap = abs(float(roots[pick % len(roots)]) - wn) / 2
    w = wn + gap if up else wn - gap
    for _ in range(abs(ulps)):
        w = math.nextafter(w, math.copysign(math.inf, ulps))
    if not _disk(cs, complex(w), complex(wn)):
        return
    r = _disk_radius(cs, complex(w), complex(wn))
    assert r is not None and r >= 2 * abs(complex(wn) - complex(w))
    assert sum(abs(y - F(wn)) < F(r) for y in roots) == 1


def test_cubic_branch_grid_is_byte_identical_and_exact():
    xs = np.linspace(1.0, 2.0, 4096)
    f = _cubic_branch()
    vals = f.eval_array(xs)
    digest = hashlib.sha256(np.ascontiguousarray(vals).tobytes()).hexdigest()
    assert digest == CUBIC_GRID_SHA256
    assert float(np.max(np.abs(vals - np.sqrt(xs ** 3 + 1)))) <= 1e-9
    # no step halved, and at most 1% of the points taken one at a time
    assert f.tracker.halvings == 0
    assert f.tracker.single_steps <= 0.01 * 4095


def test_cubic_branch_values_match_closed_form():
    a, b = F(1, 2), F(15, 4)
    xs = np.linspace(1.0, 2.0, 257)
    vals = _cubic_branch(a, b).eval_array(xs)
    want = np.sqrt(xs ** 3 + float(a) * xs + float(b))
    assert float(np.max(np.abs(vals - want))) <= 1e-9


def test_cubic_branch_c1_charts_are_certified():
    par = ck_parametrize_function(_cubic_branch(), 1, (1, F(5, 4)))
    assert par.charts
    scale = float(par.normalization.get("scale", 1))
    shift = float(par.normalization.get("shift", 0))
    for ch in par.charts:
        assert ch.meta["certificate"].ok
        x0 = float(ch.psi(F(0)))
        want = scale * math.sqrt(x0 ** 3 + 1) + shift
        assert abs(float(ch.f_comp.eval(0.0)) - want) <= 1e-9 * max(1.0, abs(want))


def test_cubic_branch_rejects_non_finite_x():
    f = _cubic_branch()
    with pytest.raises(EvaluationAtSingularity):
        f.eval_array(np.array([1.5, math.nan]))
    with pytest.raises(EvaluationAtSingularity):
        f.eval(math.inf)


_CUBIC = BivarPoly({(0, 2): 1, (3, 0): -1, (0, 0): -1})     # y^2 = x^3 + 1
_Y3 = BivarPoly({(0, 3): 1, (0, 1): 1, (1, 0): -1})         # y^3 + y = x
_Y3_HALF = 0.42385379906978327                             # y^3 + y = 1/2


@pytest.mark.parametrize("P, seed", [
    (_CUBIC, (math.nan, 1.0)), (_CUBIC, (1.0, math.inf)),
    (_CUBIC, (1.0, math.nan)), (_CUBIC, (math.inf, 1.0)),
    # y^2 = 2 ignores x, so the residual at x = inf is finite and tiny
    (BivarPoly({(0, 2): 1, (0, 0): -2}), (math.inf, math.sqrt(2)))])
def test_tracker_rejects_a_non_finite_seed(P, seed):
    with pytest.raises(ValueError, match="not a finite point on the curve"):
        BranchTracker(P, seed)


def test_cubic_branch_c2_charts_are_certified_and_pinned():
    par = ck_parametrize_function(_cubic_branch(), 2, (1, 2))
    assert len(par.charts) == 2
    assert all(ch.meta["certificate"].ok for ch in par.charts)
    text = dumps(parametrization_to_json(par, "ck"))
    assert hashlib.sha256(text.encode()).hexdigest() == CUBIC_C2_SHA256


def test_a_step_of_one_ulp_is_certified_by_the_disk_test():
    # the k = 2 build over [1, 2] of y^2 = x^3 + 1 continues x from the
    # cached key one ulp above it, and |wn - w| is one ulp of w: a disk of
    # radius 2 |wn - w| is below the rounding margin, while the radius floor
    # certifies the step, so the batch takes every point of the build
    x, w = 1.5785103785103785, 2.2210732633937686
    cs = _CUBIC.y_poly_coeffs((np.array([x]),))
    with np.errstate(all="ignore"):
        wn, conv = _newton(cs, (np.array([w]),))
        assert conv[0] and abs(wn[0][0] - w) == math.ulp(w)
        assert _disk_test(cs, (np.array([w]),), wn)[0]
    assert _one_root_in_disk(cs[0][:, 0].astype(complex), complex(w),
                             complex(wn[0][0]))
    f = _cubic_branch()
    par = ck_parametrize_function(f, 2, (1, 2))
    assert {x, math.nextafter(x, 2)} <= set(f.tracker._keys.tolist())
    assert len(par.charts) == 2
    assert (f.tracker.halvings, f.tracker.single_steps) == (0, 0)


def test_cubic_branch_analytic_and_c1_artifacts_are_pinned():
    f = _cubic_branch(F(-1, 4), F(15, 4))
    par = analytic_delta_parametrize(f, F(1, 16), (1, 2))
    assert len(par.charts) == 2
    text = dumps(parametrization_to_json(par, "analytic"))
    assert hashlib.sha256(text.encode()).hexdigest() == CUBIC_ANALYTIC_SHA256
    par = ck_parametrize_function(_cubic_branch(F(-1, 4), F(15, 4)), 1,
                                  (1, F(5, 4)))
    assert len(par.charts) == 1
    text = dumps(parametrization_to_json(par, "ck"))
    assert hashlib.sha256(text.encode()).hexdigest() == CUBIC_C1_SHA256


# -- the batch against the oracle ----------------------------------------------

_C4 = st.builds(complex, _SMALL, _SMALL)


@given(st.lists(_C4, min_size=2, max_size=5),
       st.lists(st.tuples(_C4, _C4), min_size=1, max_size=6))
def test_array_kernels_round_like_the_scalar_oracle(coeffs, pairs):
    # one fibre polynomial, several (w, wn) pairs, off the real axis too:
    # Horner, the quotient, Newton (elements stop at different iterations)
    # and the disk test give the oracle's bits element by element
    cs = np.array(coeffs, dtype=complex)
    w, wn = (np.array(v, dtype=complex) for v in zip(*pairs))
    C = _pair(np.repeat(cs[:, None], len(w), axis=1))
    with np.errstate(all="ignore"):
        horner = _pack(*_polyval([(c[0], c[1]) for c in zip(*C)][::-1],
                                 _pair(w)))
        quot = _pack(*_npdiv(_pair(w), _pair(wn)))
        newton, conv = _newton(C, _pair(w))
        disk = _disk_test(C, _pair(w), _pair(wn))
    for i, (a, b) in enumerate(pairs):
        assert repr(complex(horner[i])) == repr(_horner(cs[::-1].tolist(), a))
        if b:
            assert repr(complex(quot[i])) == repr(_cdiv(a, b))
        want = _scalar_newton(cs, a)
        assert conv[i] == (want is not None)
        if want is not None:
            assert repr(complex(newton[0][i], newton[1][i])) == repr(want)
        assert disk[i] == _one_root_in_disk(cs, a, b)


def test_a_nan_residual_is_not_convergence():
    # from -1e300 the pair form's Newton value and residual are NaN; the
    # real form stops at its start, whose residual overflows
    cs = np.array([1.0, -2.0, 1e-300, 1e300, 1.0])
    with np.errstate(all="ignore"):
        (wn,), conv = _newton((cs[:, None],), (np.array([-1e300]),))
        pn, pconv = _newton((cs[:, None], np.zeros((5, 1))),
                            (np.array([-1e300]), np.zeros(1)))
    assert np.isnan(pn[0][0])
    assert not conv[0] and not pconv[0]
    assert _scalar_newton(cs.astype(complex), -1e300 + 0j) is None


# real inputs where float arithmetic parts from complex arithmetic: signed
# zeros, subnormals, values whose products overflow, inf and NaN
_EDGES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1030,
                                    1e300, -1e300, 1e-300, -1e-300, math.inf,
                                    -math.inf, math.nan]),
                   st.floats(-8, 8), st.integers(-3, 3).map(float))


def _bits_alike(a, b):
    """Elementwise: equal bits, or both NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))


@st.composite
def _real_kernel_inputs(draw):
    """(cs, w, wn): the coefficients, lowest degree first, of m fibre
    polynomials of degree 1 to 4, and m starts and m Newton values."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    col = st.lists(_EDGES, min_size=m, max_size=m)
    return (np.array([draw(col) for _ in range(n + 1)]), np.array(draw(col)),
            np.array(draw(col)))


@given(_real_kernel_inputs(),
       st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.sampled_from([1, -1, F(1, 3), 10 ** 300,
                                        F(1, 10 ** 300)]), max_size=6),
       _EDGES)
@example((np.array([[1.0], [-4.0], [1.0]]), np.array([3.0]),
          np.array([3.5])), {(1, 1): 1}, 0.3)
def test_real_form_kernels_round_like_the_pair_form(args, terms, x):
    # Newton, the disk test and the fibre coefficients on 1-tuples of real
    # parts against the same kernels on pairs with zero imaginary parts:
    # the disk test agrees everywhere, and Newton and the coefficients
    # wherever BranchTracker._correct keeps the 1-tuple result, that is
    # where every value stays finite and far from overflow and the start
    # and Newton's value are not zero
    cs, w, wt = args
    n, zero = len(cs) - 1, np.zeros_like
    with np.errstate(all="ignore"):
        (wn,), conv = _newton((cs,), (w,))
        pn, pconv = _newton((cs, zero(cs)), (w, zero(w)))
        disk = _disk_test((cs,), (w,), (wt,))
        pdisk = _disk_test((cs, zero(cs)), (w, zero(w)), (wt, zero(wt)))
    assert disk.tolist() == pdisk.tolist()
    held = ((np.abs(cs).max(axis=0) < 2.0 ** 400) & (w != 0) & (wn != 0)
            & (np.abs(wn) < 2.0 ** (500 / n)) & np.isfinite(w))
    assert conv[held].tolist() == pconv[held].tolist()
    held &= conv
    assert _bits_alike(wn[held], pn[0][held]).all()
    assert _bits_alike(pn[1][held], 0.0).all()
    P = BivarPoly(terms or {(0, 1): 1})
    with np.errstate(all="ignore"):
        (c,) = P.y_poly_coeffs((np.array(x),))
        pc = P.y_poly_coeffs((np.array(x), np.array(0.0)))
    fin = np.isfinite(c)
    assert fin.tolist() == (np.isfinite(pc[0]) & np.isfinite(pc[1])).tolist()
    assert (c[fin] == pc[0][fin]).all() and (pc[1][fin] == 0).all()
    assert _bits_alike(c[fin & (c != 0)], pc[0][fin & (c != 0)]).all()


@settings(max_examples=200)
@given(_fibre_polys(),
       st.lists(st.tuples(_EDGES, _EDGES, _EDGES, st.booleans(),
                          st.booleans()), min_size=1, max_size=8))
@example(_Y3, [(0.0, 1e-20, 1.0, False, False),
               (-0.0, -0.0, 1.0, True, True), (0.25, 0.2, 0.1, False, True),
               (1e300, 1e100, 1.0, False, False)])
def test_the_corrector_on_the_real_axis_is_its_pair_form(P, rows):
    # _correct at targets and starts whose imaginary parts are all +-0
    # runs in float arithmetic; its values (both parts, bit for bit, NaNs
    # alike), convergence flags and sheet-guard verdicts are those of the
    # pair form on the same inputs
    x, w, h, xneg, wneg = (np.array(v) for v in zip(*rows))
    zn = _pack(x, np.where(xneg, -0.0, 0.0))
    w = _pack(w, np.where(wneg, -0.0, 0.0))
    h = np.abs(h)
    t = BranchTracker(P, (0.0, 0.0))
    with np.errstate(all="ignore"):
        wn, conv, ok = t._correct(w, zn, h)
        pn, pconv, pok, _ = t._correct_parts(_pair(w), _pair(zn), h)
    assert conv.tolist() == pconv.tolist() and ok.tolist() == pok.tolist()
    assert _bits_alike(wn.real[conv], pn.real[conv]).all()
    assert _bits_alike(wn.imag[conv], pn.imag[conv]).all()


@st.composite
def _branches(draw):
    """(P, seed): a smooth y^2 = x^3 + a x + b through (1, sqrt(1 + a + b)),
    or a cubic fibre y^3 + (a1 x + a0) y + b2 x^2 + b1 x + b0 through
    (0, y0); the second has singular points near its seed more often."""
    if draw(st.booleans()):
        a, b = F(draw(st.integers(-8, 8)), 4), F(draw(st.integers(-8, 16)), 4)
        assume(4 * a ** 3 + 27 * b ** 2 != 0 and 1 + a + b > 0)
        P = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): -a, (0, 0): -b})
        return P, (1.0, math.sqrt(float(1 + a + b)))
    a1, a0, b2, b1 = (draw(st.integers(-3, 3)) for _ in range(4))
    y0 = draw(st.sampled_from([-2, -1, 1, 2]))
    P = BivarPoly({(0, 3): 1, (1, 1): a1, (0, 1): a0, (2, 0): b2,
                   (1, 0): b1, (0, 0): -(y0 ** 3 + a0 * y0)})
    return P, (0.0, float(y0))


# offsets from the seed, unsorted and with repeats; the earlier grid's keys
# i/8 put many later points (odd multiples of 1/16) midway between two
# keys, and points up to 3 away take steps that Newton or the sheet guard
# rejects, so that the step is halved
_GRID = st.lists(st.one_of(st.integers(-24, 24).map(lambda i: i / 32),
                           st.floats(-3, 3)), min_size=1, max_size=30)
_EARLIER = st.lists(st.integers(-6, 6).map(lambda i: i / 8), max_size=8)


def _check_real(br, grids, deriv):
    # values, error types, the cache (keys, and values bit for bit) and the
    # halvings agree with the oracle after every grid; returns the tracker
    P, seed = br
    f, t = BranchExpr(P, seed), _Oracle(P, seed)
    g = f.deriv() if deriv else f
    for xs in grids:
        xs = np.array(xs, dtype=float)
        got, gerr = _outcome(lambda: g.eval_array(xs))
        want, werr = _outcome(lambda: _oracle_eval(t, xs, g.rat))
        assert gerr == werr
        if werr is None:
            assert got.tobytes() == want.tobytes()
        tr, keys = f.tracker, sorted(t._real_cache)
        assert tr._keys.tolist() == keys
        assert tr._vals.tobytes() == np.array(
            [t._real_cache[k] for k in keys], dtype=complex).tobytes()
        assert tr.halvings == t.halvings
    return f.tracker


@settings(max_examples=60)
@given(_branches(), _EARLIER, _GRID, st.booleans())
@example((_CUBIC, (1.0, math.sqrt(2.0))), [0.0, 0.25], [0.125, 0.125, -3.0],
         False)
@example((_CUBIC, (1.0, math.sqrt(2.0))), [0.5], [0.25, math.nan], True)
@example((BivarPoly({(0, 3): 1, (2, 0): -2, (1, 0): 1, (0, 0): 8}), (0.0, -2.0)),
         [], [1.906598871905301, -2.961054435148281, 1.8024971597178312,
              2.8124297204158593], False)     # 54 halvings
# the walk stops at the first failure: no halving after it counts
@example((BivarPoly({(0, 3): 1, (1, 1): -2, (0, 1): -1, (2, 0): -2,
                     (1, 0): -1}), (0.0, 1.0)), [], [-5 / 32, -0.3125], False)
# a pole of rat at a cached point comes before a later failed continuation
@example((BivarPoly({(0, 3): 1, (0, 1): -3, (0, 0): -2}), (0.0, -1.0)),
         [0.0, 1 / 8], [0.0], True)
# the smooth branch y^3 + y = x, whose value at x = 0 is exactly 0: Newton
# lands on +-0 there and the next point starts from it
@example((_Y3, (0.5, _Y3_HALF)), [-0.5], [-0.25, -0.5, -1.0, 0.0], False)
@example((_Y3, (0.5, _Y3_HALF)), [], [-0.5, 0.25, -0.75], True)
def test_real_grids_match_the_point_by_point_tracker(br, earlier, grid, deriv):
    _check_real(br, [br[1][0] + np.array(g) for g in (earlier, grid)], deriv)


@pytest.mark.parametrize("deriv", [False, True])
def test_signed_zero_grid_points_match_the_point_by_point_tracker(deriv):
    # 0.0 and -0.0 are one cache key; subnormal points beside it
    _check_real((_Y3, (0.5, _Y3_HALF)),
                [[0.0, -0.0, 0.25], [-0.0, 5e-324, -5e-324, -0.5]], deriv)


@st.composite
def _reordered_calls(draw):
    """(br, earlier, xs, ys): a branch, the points of an earlier call, the
    points xs of a call and ys, a permutation of xs with repeats added."""
    br = draw(_branches())
    earlier = [br[1][0] + x for x in draw(_EARLIER)]
    xs = [br[1][0] + x for x in draw(_GRID)]
    extra = draw(st.lists(st.sampled_from(xs), max_size=10))
    return br, earlier, xs, draw(st.permutations(xs + extra))


# y^2 = x^3 + 2 from x = -1: 1.5 - 2^-61 and 1.5 - 2^-60 both round to 1.5,
# so at 1.5 the points 2^-61 and 2^-60 tie, as earlier keys and as earlier
# points of the same call; 1.5 continues from 2^-60, its neighbour below
_TIES = (BivarPoly({(0, 2): 1, (3, 0): -1, (0, 0): -2}), (-1.0, 1.0))


@settings(max_examples=40)
@given(_reordered_calls())
@example((_TIES, [2.0 ** -61, 2.0 ** -60], [1.5, 0.0, 0.75],
          [0.75, 1.5, 0.0, 1.5, 0.75]))
@example((_TIES, [], [2.0 ** -61, 2.0 ** -60, 1.5, -0.5],
          [1.5, 2.0 ** -60, -0.5, 2.0 ** -61, 2.0 ** -60]))
@example((_TIES, [0.0], [2.0 ** -60, 1.5, 2.0 ** -61],
          [2.0 ** -61, 1.5, 1.5, 2.0 ** -60]))
def test_a_calls_values_ignore_the_order_and_repeats_of_its_points(calls):
    # after the same earlier call, ys gives every point of xs the same value,
    # bit for bit, or fails with the same error, and leaves the same cache
    # and counters; both histories match the oracle
    br, earlier, xs, ys = calls
    runs = []
    for pts in (xs, ys):
        _check_real(br, [earlier, pts], False)
        f = BranchExpr(*br)
        _outcome(lambda: f.eval_array(np.array(earlier)))
        got, err = _outcome(lambda: f.eval_array(np.array(pts)))
        t = f.tracker
        vals = None if err else {x: v.hex() for x, v in zip(pts, got.tolist())}
        runs.append((vals, err, t._keys.tobytes(), t._vals.tobytes(),
                     t.halvings, t.single_steps))
    assert runs[0] == runs[1]


@settings(max_examples=25)
@given(_branches(), _EARLIER, _GRID, st.integers(1, 40))
@example((BivarPoly({(0, 3): 1, (1, 1): 2, (1, 0): 2, (0, 0): -1}), (0.0, 1.0)),
         [0.25, 0.25], [0.0], 1)
def test_the_cache_cap_holds_across_a_grid(br, earlier, grid, cap):
    # the cache holds at most cap keys, and the points of one call chain
    # through each other past the cap: a call's values are an uncapped
    # tracker's, and both calls match the oracle under the same cap
    grids = [br[1][0] + np.array(g) for g in (earlier, grid)]
    want, werr = _outcome(lambda: BranchExpr(*br).eval_array(grids[1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcs, "CONTINUATION_CACHE_CAP", cap)
        assert len(_check_real(br, grids, False)._keys) <= cap
        got, gerr = _outcome(lambda: BranchExpr(*br).eval_array(grids[1]))
    assert gerr == werr
    if werr is None:
        assert got.tobytes() == want.tobytes()


_FAR = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): -F(1, 2), (0, 0): -F(17, 4)})
_FIBRE = BivarPoly({(0, 3): 1, (1, 1): 1, (0, 1): 1, (2, 0): -1, (1, 0): 2,
                    (0, 0): -2})


def _nearest_root(g, y):
    """The float nearest the root of g, increasing, from the float y: exact
    signs of g at the midpoints between y and its neighbours."""
    while True:
        lo, hi = math.nextafter(y, -math.inf), math.nextafter(y, math.inf)
        if g((F(lo) + F(y)) / 2) > 0:
            y = lo
        elif g((F(y) + F(hi)) / 2) < 0:
            y = hi
        else:
            return y


def _far_root(x):
    r = F(x) ** 3 + F(x) / 2 + F(17, 4)
    return _nearest_root(lambda y: y * y - r, math.sqrt(r))


def _fibre_root(x):
    near = max(np.roots([1.0, 0.0, x + 1.0, -(x * x - 2 * x + 2)]).real)
    x = F(x)
    return _nearest_root(lambda y: y ** 3 + (x + 1) * y - x * x + 2 * x - 2,
                         float(near))


_FAR_SEED = (1.0, math.sqrt(23 / 4))


@pytest.mark.parametrize("P, seed, x", [(_FAR, _FAR_SEED, 1e5),
                                        (_FIBRE, (0.0, 1.0), 1e6)])
def test_a_walk_past_the_round_cap_is_a_branch_jump(P, seed, x):
    # far from the seed these walks take 29 and 38 corrector rounds; under a
    # cap of 20 they end there, well within a second, and under the real cap
    # they reach the root of their fibre
    root = _far_root if P is _FAR else _fibre_root
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(funcs, "CONTINUATION_ROUND_CAP", 20)
        with pytest.raises(BranchJump, match="corrector rounds"):
            BranchExpr(P, seed).eval_array(np.array([x]))
        _check_real((P, seed), [[x]], False)
    y = BranchExpr(P, seed).eval_array(np.array([x]))[0]
    assert abs(y - root(x)) <= 2 * math.ulp(y)


@pytest.mark.parametrize("xs", [np.linspace(1.0, 200.0, 4096),
                                [100.0], [1e3], [3e3], [2e4], [1e5]])
def test_a_smooth_branch_evaluates_far_from_its_seed(xs):
    # from x ~ 81 on, the terms of P round by more than 1e-10: the corrector
    # accepts a residual at the scale of that rounding
    xs = np.array(xs, dtype=float)
    ys = BranchExpr(_FAR, _FAR_SEED).eval_array(xs)
    for x, y in zip(xs.tolist(), ys.tolist()):
        assert abs(y - _far_root(x)) <= 4 * math.ulp(y)
    if len(xs) == 1:
        _check_real((_FAR, _FAR_SEED), [xs], False)


@pytest.mark.parametrize("x", [5e102, 5.6e102])
def test_a_smooth_branch_evaluates_where_its_sums_overflow(x):
    # every coefficient of the fibre is finite up to x ~ 5.6e102, but
    # |y|^2 + |x^3| passes the float range from x ~ 4.3e102 on: the
    # corrector's residual bound and the disk test's sums are formed over a
    # power of two there, where they used to reject every step
    y = BranchExpr(_FAR, _FAR_SEED).eval(x)
    assert abs(y - _far_root(x)) <= 4 * math.ulp(y)


@settings(max_examples=10, deadline=None)
@given(st.integers(-4, 4), st.integers(12, 20), st.sampled_from([1.25, 1.75]))
@example(-1, 15, 1.75)
@example(2, 17, 1.75)
def test_disk_rows_take_only_their_entries_one_at_a_time(a, b, center):
    # curves of the benchmark family, y^2 = x^3 + a/4 x + b/4, every
    # singular point at least 1/2 from [1, 2]: each disk row's points after
    # its first land on their targets in one whole step, which the batch
    # takes; only a row's entry from the seed may need several substeps
    a, b = F(a, 4), F(b, 4)
    assume(all(abs(r - min(2.0, max(1.0, r.real))) >= 0.5
               for r in np.roots([1.0, 0.0, float(a), float(b)])))
    f = _cubic_branch(a, b)
    circle_sup(f.eval_array, complex(center), 0.5)
    assert f.tracker.single_steps <= CIRCLE_RADII
    assert f.tracker.halvings == 0


@pytest.mark.parametrize("a, b", [(F(-1, 4), F(15, 4)), (F(1, 2), F(17, 4))])
def test_the_sweep_tools_analytic_branches_halve_no_step(a, b):
    # the two analytic builds of tools/cli_sweep.py's branch script
    f = _cubic_branch(a, b)
    analytic_delta_parametrize(f, F(1, 16), (1, 2))
    assert f.tracker.halvings == 0


@st.composite
def _far_curves(draw):
    """(a, b) for y^2 = x^3 + a x + b whose cubic has no real root within
    1/2 of [1, inf), so the upper branch through x = 1 is real and analytic
    on [1, inf)."""
    a, b = (F(draw(st.integers(-40, 40)), 4) for _ in range(2))
    cubic = Poly([b, a, 0, 1])
    assume(not isolate_roots(cubic, F(1, 2), 1 + abs(a) + abs(b)))
    return a, b


@settings(max_examples=8, deadline=None)
@given(_far_curves())
@example((F(1, 2), F(17, 4)))
def test_branches_evaluate_to_the_root_on_a_far_grid(ab):
    # a 4,096-point grid on [1, 10^6] raises no BranchJump, and each value
    # is within 4 ulps of the correctly rounded root, computed with Fraction
    a, b = ab
    xs = np.linspace(1.0, 1e6, 4096)
    ys = _cubic_branch(a, b).eval_array(xs)
    for x, y in zip(xs.tolist(), ys.tolist()):
        r = F(x) ** 3 + a * F(x) + b
        root = _nearest_root(lambda v: v * v - r, y)
        assert abs(y - root) <= 4 * math.ulp(y)


@pytest.mark.parametrize("x", [1e103, 1e150])
def test_a_fibre_that_overflows_fails_at_once(x):
    # x^3 is inf in floats from x ~ 5.6e102 on, so no float walk reaches a
    # root there: it fails before its first step, with no halving; the
    # points before it are evaluated and cached, among them 2e102, whose
    # coefficients are finite but too large to screen out
    f = BranchExpr(_FAR, _FAR_SEED)
    with pytest.raises(FibreOverflow, match="overflows"):
        f.eval(x)
    with pytest.raises(FibreOverflow, match="overflows"):
        f.eval_array(np.array([2.0, x]))
    with pytest.raises(FibreOverflow, match="overflows"):
        f.eval_array(np.array([1.5, 1.5 + 1j, x + 1j]))
    t = f.tracker
    assert t.halvings == 0
    assert t._keys.tolist() == [1.0, 2.0]
    assert f.eval_array(np.array([1e100]))[0] == _far_root(1e100)
    _check_real((_FAR, _FAR_SEED), [[2.0, 1e100], [2e102, x]], False)
    _check_path((_FAR, _FAR_SEED), np.array([[1.5, 1.5 + 1j, x + 1j]]), True)


def _check_path(br, zs, deriv):
    # values (bit for bit, which is within any relative tolerance), error
    # types and the fallback counters agree with the oracle
    P, seed = br
    f, t = BranchExpr(P, seed), _Oracle(P, seed)
    g = f.deriv() if deriv else f
    got, gerr = _outcome(lambda: g.eval_array(zs))
    want, werr = _outcome(lambda: _oracle_eval(t, zs, g.rat))
    assert gerr == werr
    if werr is None:
        assert got.tobytes() == want.tobytes()
    assert f.tracker.halvings == t.halvings


@settings(max_examples=40)
@given(_branches(), st.floats(-0.5, 0.5), st.floats(0.01, 0.6),
       st.integers(1, 3), st.integers(2, 24), st.booleans())
def test_circle_rows_match_the_point_by_point_tracker(br, shift, radius, rows,
                                                      angles, deriv):
    # rows as circle_sup lays them out: row j the circle of radius r_j about
    # c, starting at its real point c + r_j
    P, seed = br
    unit = np.exp(1j * np.linspace(0.0, 2 * math.pi, angles, endpoint=False))
    radii = radius * np.arange(1, rows + 1) / rows
    zs = seed[0] + shift + radii[:, None] * unit
    zs[:, 0] = seed[0] + shift + radii
    _check_path(br, zs, deriv)


@pytest.mark.parametrize("deriv", [False, True])
@pytest.mark.parametrize("br, rows", [
    ((_CUBIC, (1.0, math.sqrt(2.0))), [[1, 1, 1.25 + 0.1j, 1.25 + 0.1j, 1.5,
                                        1.5]]),
    ((_Y3, (0.5, _Y3_HALF)), [[0.5, 0.25 + 0.1j, 0.25 + 0.1j, 0, 0, -0.5],
                              [0.5, 0.5, 0.5, -0.25j, 0, 0]]),
])
def test_repeated_path_points_match_the_point_by_point_tracker(br, rows,
                                                               deriv):
    # rows that start at the seed's x or repeat a point: zero-length steps,
    # which the sweep hands to _advance, a point at a time, like any step
    # its batch cannot take; on y^3 + y = x the value at 0 is exactly 0
    _check_path(br, np.array(rows, dtype=complex), deriv)


@st.composite
def _spelled_curves(draw):
    """(terms, seed, interval): y^2 = x^3 + a x + b through (1, sqrt(1 + a
    + b)) on [1, 2], as the `curves` benchmark spells it, or a random
    integer P of y-degree 2 or 3 through (0, y0) on [0, 1]."""
    if draw(st.booleans()):
        a, b = F(draw(st.integers(-8, 8)), 4), F(draw(st.integers(-8, 16)), 4)
        assume(1 + a + b > 0)
        terms = {(0, 2): 1, (3, 0): -1, (1, 0): -a, (0, 0): -b}
        return terms, (1.0, math.sqrt(float(1 + a + b))), (1.0, 2.0)
    degy, y0 = draw(st.integers(2, 3)), draw(st.sampled_from([-2, -1, 1, 2]))
    terms = {(i, j): draw(st.integers(-5, 5))
             for i in range(3) for j in range(degy) if (i, j) != (0, 0)}
    terms[(0, degy)] = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
    terms[(0, 0)] = -sum(c * y0 ** j for (i, j), c in terms.items() if i == 0)
    return terms, (0.0, float(y0)), (0.0, 1.0)


def _any_outcome(fn):
    """(value, None), or (None, (type, message)) of the typed error, bad
    seed or pole that fn raised."""
    try:
        return fn(), None
    except (SmoothParamError, ValueError, ZeroDivisionError) as e:
        return None, (type(e), str(e))


@settings(max_examples=30)
@given(_spelled_curves(), st.permutations(range(10)))
@example(({(0, 2): 1, (3, 0): -1, (1, 0): F(1, 4), (0, 0): F(-15, 4)},
          (1.0, math.sqrt(4.5)), (1.0, 2.0)), list(range(9, -1, -1)))
def test_a_branch_does_not_depend_on_how_p_is_spelled(curve, perm):
    # P with its terms in another order is the same polynomial, and every
    # float that flows from it is the same: its terms, the coefficients of
    # its fibres at real and complex x, and the branch values on a
    # 4,096-point grid and on one circle row.  The reversed spelling of the
    # `curves` curve y^2 = x^3 - x/4 + 15/4 once moved 116 of the grid's
    # values.
    terms, seed, (lo, hi) = curve
    items = list(terms.items())
    P = BivarPoly(terms)
    Q = BivarPoly(dict(items[k] for k in perm if k < len(items)))
    assert P == Q and P.float_terms() == Q.float_terms()
    xs = np.linspace(lo, hi, 4096)
    row = (lo + hi) / 2 + (hi - lo) / 4 * np.exp(
        2j * math.pi * np.arange(256) / 256)
    for z in ((xs,), _pair(xs), _pair(row)):
        with np.errstate(all="ignore"):
            p, q = (np.stack(R.y_poly_coeffs(z)) for R in (P, Q))
        assert p.tobytes() == q.tobytes()
    for pts in (xs, row[None, :]):
        (p, perr), (q, qerr) = (
            _any_outcome(lambda R=R: BranchExpr(R, seed).eval_array(pts))
            for R in (P, Q))
        assert perr == qerr
        if perr is None:
            assert p.tobytes() == q.tobytes()
