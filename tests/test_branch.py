"""Algebraic branches of y^2 = x^3 + a x + b: the tracker's nearest-point
lookup against the linear scan it replaces, its corrector arithmetic against
numpy's, byte-identity of a fixed grid evaluation, values against the closed
form, the typed error at a non-finite x, and a C^1 build end to end."""

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
from smoothparam.funcs import BranchExpr, BranchTracker, _cdiv, _horner

# sha256 of eval_array on y^2 = x^3 + 1 over np.linspace(1, 2, 4096), as
# computed by the linear-scan tracker this one replaced
CUBIC_GRID_SHA256 = \
    "e3091dc0bcb1814a8ab9f9d9f16f9b0ba94f960c1b2d5ff655722d5fba5d0da3"


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


@given(st.lists(_KEYS, max_size=40), st.one_of(_KEYS, st.just(math.nan)))
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


def test_cubic_branch_grid_is_byte_identical_and_exact():
    xs = np.linspace(1.0, 2.0, 4096)
    vals = _cubic_branch().eval_array(xs)
    digest = hashlib.sha256(np.ascontiguousarray(vals).tobytes()).hexdigest()
    assert digest == CUBIC_GRID_SHA256
    assert float(np.max(np.abs(vals - np.sqrt(xs ** 3 + 1)))) <= 1e-9


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
