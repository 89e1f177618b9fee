"""The norming-LP solver against HiGHS (`scipy.optimize.linprog`) on random
LPs max c.x subject to -1 <= M x <= 1, with n <= 10 columns and m <= 200
rows: full-rank, zero-column, duplicated-column and rank-deficient M, and
small-integer M, whose repeated rows make degenerate vertices.
Values agree to 1e-9 relative, the optimum is feasible, a warm-started sweep
gives the values of cold solves, and an LP that is unbounded raises
UnboundedLP."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from smoothparam.errors import UnboundedLP
from smoothparam.simplex import norming_lp

KINDS = ("full", "zero", "duplicate", "rank", "integer")


def _matrix(rng, kind, m, n):
    if kind == "rank":
        k = int(rng.integers(1, n + 1))
        return rng.normal(size=(m, k)) @ rng.normal(size=(k, n))
    if kind == "integer":
        return rng.integers(-2, 3, size=(m, n)).astype(float)
    M = rng.normal(size=(m, n))
    if kind == "zero":
        M[:, rng.integers(n)] = 0.0
    elif kind == "duplicate" and n > 1:
        j, k = rng.choice(n, 2, replace=False)
        M[:, k] = M[:, j]
    return M


def _highs(c, M):
    m, n = M.shape
    res = linprog(-c, A_ub=np.vstack([M, -M]), b_ub=np.ones(2 * m),
                  bounds=[(None, None)] * n, method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    return res.status, (-res.fun if res.status == 0 else None)


lps = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from(KINDS),
                st.integers(1, 200), st.integers(1, 10))


@settings(max_examples=60)
@given(lps)
def test_sweep_matches_highs(lp):
    seed, kind, m, n = lp
    rng = np.random.default_rng(seed)
    M = _matrix(rng, kind, m, n)
    state = None
    for _ in range(4):
        # c in the row space of M, so the LP is bounded
        c = M.T @ rng.normal(size=m)
        x, warm, state = norming_lp(c, M, state)
        cold = norming_lp(c, M)[1]
        status, want = _highs(c, M)
        assert status == 0
        scale = max(1.0, abs(want))
        assert abs(warm - want) <= 1e-9 * scale
        assert abs(cold - warm) <= 1e-9 * scale
        assert np.max(np.abs(M @ x)) <= 1 + 1e-9
        assert abs(c @ x - warm) <= 1e-9 * scale


@settings(max_examples=40)
@given(lps)
def test_unbounded_lp_raises(lp):
    seed, kind, m, n = lp
    rng = np.random.default_rng(seed)
    M = _matrix(rng, kind, m, n)
    # a direction d with M d = 0, from the right singular vectors of M
    _, sv, vt = np.linalg.svd(M)
    rank = int(np.sum(sv > 1e-8 * sv[0])) if sv[0] > 0 else 0
    assume(rank < n)
    c = M.T @ rng.normal(size=m) + vt[rank]
    # x = 0 is feasible, so HiGHS's "infeasible or unbounded" (status 2
    # from its presolve) also means unbounded
    assert _highs(c, M)[0] in (2, 3)
    with pytest.raises(UnboundedLP) as info:
        norming_lp(c, M)
    d = info.value.direction
    assert c @ d > 0
    assert np.max(np.abs(M @ d)) <= 1e-9 * np.max(np.abs(d))
