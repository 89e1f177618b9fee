"""Algebraic branches of y^2 = x^3 + a x + b: the tracker's nearest-point
lookup against the linear scan it replaces, its corrector arithmetic against
numpy's, the Rouche disk test of its sheet guard against np.roots and
against exactly known roots, byte-identity of a fixed grid evaluation and
how rarely it falls back to np.roots there, values against the closed form,
the typed errors at a non-finite x and a non-finite seed, and C^1 and C^2
builds end to end."""

import cmath
import hashlib
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from smoothparam.bivar import BivarPoly
from smoothparam.ck_param import ck_parametrize_function
from smoothparam.errors import EvaluationAtSingularity
from smoothparam.funcs import (BranchExpr, BranchTracker, _cdiv, _horner,
                               _one_root_in_disk)
from smoothparam.serialize import dumps, parametrization_to_json

# sha256 of eval_array on y^2 = x^3 + 1 over np.linspace(1, 2, 4096), as
# computed by the linear-scan tracker this one replaced
CUBIC_GRID_SHA256 = \
    "e3091dc0bcb1814a8ab9f9d9f16f9b0ba94f960c1b2d5ff655722d5fba5d0da3"
# sha256 of the k=2 artifact of that branch over [1, 2], as computed by the
# tracker that ran np.roots at every step its cheap test failed
CUBIC_C2_SHA256 = \
    "fe59e6c1c281e8e8a5958ac7881e8b1229178826f7888bf51de1caca8adc8387"


def _cubic_branch(a=0, b=1):
    P = BivarPoly({(0, 2): 1, (3, 0): -1, (1, 0): -F(a), (0, 0): -F(b)})
    return BranchExpr(P, (1.0, math.sqrt(float(1 + a + b))))


def _tracker():
    # y^2 = x through (4, 2); the seed key 4.0 is the first one cached
    return BranchTracker(BivarPoly({(1, 0): 1, (0, 2): -1}), (4.0, 2.0))


_KEYS = st.one_of(
    st.integers(-8, 8).map(lambda i: i / 4),           # equidistant neighbours
    st.sampled_from([1.0, 2.0, 2.0 ** -60, 2.0 ** -61,  # ties after rounding
                     1e308, -1e308, math.inf, -math.inf]),
    st.floats(-1e-15, 1e-15),
    st.floats(allow_nan=False))


@given(st.lists(_KEYS, max_size=40), _KEYS)
@example([2.0, 2.0 ** -61, 2.0 ** -60], 1.0)
@example([2.0 ** -60, 2.0, 2.0 ** -61], 1.0)
@example([0.75, 1.25, 1.25, 0.75], 1.0)
@example([-math.inf, math.inf], 0.0)
def test_nearest_key_matches_linear_scan(keys, x):
    t = _tracker()
    for k in keys:                       # repeated keys hit the cache
        if k not in t._real_cache:
            t._remember(k, 0j)
    if x in t._real_cache:
        return
    want = min(t._real_cache, key=lambda k: abs(k - x))
    assert repr(t._nearest_key(x)) == repr(want)


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


@given(_fibre_polys(), _COMPLEX, _COMPLEX, _GAPS)
@example(BivarPoly({(0, 2): 1, (1, 1): 1, (0, 1): -4, (1, 0): 1}),
         0.5, 1.0, 0.1)
def test_disk_test_accepts_only_steps_the_roots_guard_accepts(P, zn, w0, dw):
    # wn is the corrector's output, as in the tracker; w is the previous
    # value, dw away.  Whenever the disk test certifies the step, np.roots
    # finds exactly one root within r = 2 |wn - w| of wn, and the np.roots
    # guard it stands in for accepts the same step.
    t = BranchTracker(P, (0.0, 0.0))
    cs = P.y_poly_coeffs_complex(zn)
    wn = t._newton(cs, w0)
    assume(wn is not None)
    w = wn + dw
    if not _one_root_in_disk(cs, w, wn):
        return
    roots = np.roots(np.trim_zeros(cs, trim="b")[::-1])
    r = 2 * abs(wn - w)
    assert sum(abs(x - wn) < r for x in roots) == 1
    near = min((abs(x - wn) for x in roots if abs(x - wn) > 1e-12),
               default=math.inf)
    assert abs(wn - w) <= 0.5 * near


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
    # a few ulps, where only the rounding margin keeps the test honest.
    P = BivarPoly({(0, 0): 1})
    for a, c in lines:
        P = P * BivarPoly({(0, 1): 1, (0, 0): -F(a), (1, 0): -F(c)})
    roots = [F(a) + F(c) * F(zn) for a, c in lines]
    cs = P.y_poly_coeffs_complex(zn)
    assert cs.tolist() == [float(c) for c in P.y_poly_at(F(zn)).coeffs]
    gap = abs(float(roots[pick % len(roots)]) - wn) / 2
    w = wn + gap if up else wn - gap
    for _ in range(abs(ulps)):
        w = math.nextafter(w, math.copysign(math.inf, ulps))
    if not _one_root_in_disk(cs, complex(w), complex(wn)):
        return
    r = F(2 * abs(wn - w))
    assert sum(abs(y - F(wn)) < r for y in roots) == 1


def test_cubic_branch_grid_is_byte_identical_and_exact():
    xs = np.linspace(1.0, 2.0, 4096)
    f = _cubic_branch()
    vals = f.eval_array(xs)
    digest = hashlib.sha256(np.ascontiguousarray(vals).tobytes()).hexdigest()
    assert digest == CUBIC_GRID_SHA256
    assert float(np.max(np.abs(vals - np.sqrt(xs ** 3 + 1)))) <= 1e-9
    # np.roots at fewer than 1% of the 4,095 or more continuation steps
    assert f.tracker.roots_calls < 0.01 * 4095


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
