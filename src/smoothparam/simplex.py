"""Active-set primal simplex for the norming LPs: maximize c.x subject to
-1 <= M x <= 1.  x holds the coefficients of a polynomial Q, row i of M its
monomials at the sample z_i and c those at a point y, so the value is
max Q(y) over |Q| <= 1 on the samples; n is tiny and m large.

`norming_lp` reduces M once: Gram-Schmidt in monomial order drops each
column that depends on the ones before it (its coefficient is 0, and a c
with a component along it makes the LP unbounded) and factors the rest as
U @ G with U orthonormal.  `simplex_maximize` walks the LP over U from a
feasible point and its active rows W.  With fewer rows in W than columns
in U it steps along c projected off W; otherwise it stops when the
multipliers of c over W are >= -tol, and else leaves the row with the most
negative one.  Each step is a unit direction with one ratio test over all
m rows.  The optimum is solved for in monomials from its active rows.
Feasibility does not depend on c, so any stored optimum over the same M
is a warm start for another objective.  For a sweep over many objectives,
`norming_objectives` reduces M and moves every c onto U at once, and
`dual_bounds` turns the active rows of one optimum into an upper bound on
the LP value at every objective, by weak duality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleLP, UnboundedLP

LP_TOLERANCE = 1e-9                  # relative optimality, unboundedness
DEPENDENT_COLUMN = 1e-10             # residual / largest column norm
STEP_TOLERANCE = 1e-12               # |row . d| that blocks a unit step d
BLAND_AFTER = 100                    # steps before smallest-index choices
MAX_STEPS = 10000                    # steps per LP


@dataclass
class NormingState:
    """One M reduced to full column rank, and the last optimum over it."""
    M: np.ndarray
    keep: list                       # independent columns, in order
    U: np.ndarray                    # M = U @ W, U orthonormal
    W: np.ndarray
    G_inv: np.ndarray                # inverse of W[:, keep]
    u: np.ndarray                    # last optimum, over U
    active: list                     # its active rows, as (row, sign)


def _reduce(M):
    scale = np.max(np.linalg.norm(M, axis=0), initial=0.0)
    U = np.zeros((M.shape[0], 0))
    keep = []
    for j in range(M.shape[1]):
        v = M[:, j]
        for _ in range(2):           # Gram-Schmidt, orthogonalized twice
            v = v - U @ (U.T @ v)
        norm = np.linalg.norm(v)
        if norm > DEPENDENT_COLUMN * scale:
            U = np.column_stack([U, v / norm])
            keep.append(j)
    W = U.T @ M
    return NormingState(M, keep, U, W, np.linalg.inv(W[:, keep]),
                        np.zeros(len(keep)), [])


def _check_row_space(state, C, gaps):
    """Raise UnboundedLP at the first row c of C whose gap, its component
    off the row space of M, is above tolerance; the direction d has M d = 0
    and c.d > 0."""
    off = np.max(np.abs(gaps), axis=1) > LP_TOLERANCE * np.maximum(
        1.0, np.max(np.abs(C), axis=1))
    if off.any():
        i = int(np.argmax(off))
        k = int(np.argmax(np.abs(gaps[i])))
        d = np.zeros(C.shape[1])
        d[k] = np.sign(gaps[i, k])
        d[state.keep] = -state.G_inv @ state.W[:, k] * d[k]
        raise UnboundedLP("objective has a component along a column that "
                          "depends on the others", direction=d)


def norming_lp(c, M, state=None):
    """maximize c.x subject to -1 <= M x <= 1.

    Returns (x, value, state).  Passing `state` back in with the same M
    reuses its reduction and starts from its optimum (`u`, `active`).
    Raises UnboundedLP, with a direction d such that M d = 0 and c.d > 0,
    when c has a component along a dependent column."""
    c = np.asarray(c, dtype=float)
    if state is None or state.M is not M:
        state = _reduce(np.asarray(M, dtype=float))
    cu = state.G_inv.T @ c[state.keep]
    _check_row_space(state, c[None], (c - state.W.T @ cu)[None])
    state.u, _, state.active = simplex_maximize(cu, state.U, state.u,
                                                state.active)
    if 0 < len(state.active) == len(state.keep):
        # a vertex: solve M[row] . z = sign on its rows, in monomials, in
        # row order, so that z depends on the vertex, not the pivots to it
        rows, signs = zip(*sorted(state.active))
        z = np.linalg.solve(state.M[np.ix_(rows, state.keep)], signs)
    else:
        z = state.G_inv @ state.u
    x = np.zeros(len(c))
    x[state.keep] = z
    return x, float(c[state.keep] @ z), state


def norming_objectives(C, M):
    """(CU, state) for the objectives in the rows of C: row i of CU is the
    objective over U that `norming_lp` solves at C[i], and state is the
    reduction of M to pass to it.  Runs norming_lp's row-space test on
    every row, in order, and raises its UnboundedLP at the first that
    fails."""
    state = _reduce(np.asarray(M, dtype=float))
    C = np.asarray(C, dtype=float)
    CU = C[:, state.keep] @ state.G_inv
    _check_row_space(state, C, C - CU @ state.W)
    return CU, state


def dual_bounds(state, CU):
    """An upper bound on the LP value at each row cu of CU, from the active
    rows B of state's optimum when they make a vertex, else None.  With
    Lam = B^-T cu and res = cu - B^T Lam, every feasible u has
    cu.u = Lam.(B u) + res.u <= sum |Lam| + sqrt(m) |res|, because
    |B u| <= 1 entrywise and |u| = |U u| <= sqrt(m).  At the objective
    that state is optimal for, Lam >= 0 and the bound is its value."""
    if not 0 < len(state.active) == len(state.keep):
        return None
    B = state.U[[i for i, _ in state.active]]
    lam = np.linalg.solve(B.T, CU.T)
    res = np.linalg.norm(CU.T - B.T @ lam, axis=0)
    return np.sum(np.abs(lam), axis=0) + math.sqrt(len(state.U)) * res


def simplex_maximize(c, A, x, active):
    """maximize c.x subject to -1 <= A x <= 1, A of full column rank.

    Starts from the feasible x whose active rows are `active`: linearly
    independent (row, sign) pairs with sign * A[row] . x = 1.  Returns
    (x, value, active) at an optimum."""
    m, r = A.shape
    x = np.array(x, dtype=float)
    active = list(active)
    Ax = A @ x
    if np.any(np.abs(Ax) > 1 + LP_TOLERANCE):
        raise InfeasibleLP("start point violates the constraints")
    for step in range(MAX_STEPS):
        k = len(active)
        B = np.array([s * A[i] for i, s in active]).reshape(k, r)
        # below r active rows, complete B by an orthonormal basis N of the
        # directions that keep them all.  Then one backward-stable solve
        # splits c = B^T lam + N mu, and another gives the direction that
        # leaves row j (B d = -e_j, N^T d = 0); both keep the other active
        # rows at their bounds to rounding, however close the rows are.
        N = np.zeros((r, 0))
        if k < r:
            N = np.linalg.qr(B.T, mode="complete")[0][:, k:]
            B = np.vstack([B, N.T])
        lam = np.linalg.solve(B.T, c)
        d = N @ lam[k:]
        if k == r or np.linalg.norm(d) <= LP_TOLERANCE * np.linalg.norm(c):
            lam = lam[:k]
            negative = np.flatnonzero(
                lam < -LP_TOLERANCE * np.max(np.abs(lam), initial=0.0))
            if not negative.size:
                return x, float(c @ x), active
            if step >= BLAND_AFTER:
                j = min(negative, key=lambda i: active[i][0])
            else:
                j = int(negative[np.argmin(lam[negative])])
            d = np.linalg.solve(B, -np.eye(r)[j])    # c.d = -lam_j > 0
            active.pop(j)
        d /= np.linalg.norm(d)
        v = A @ d
        v[[i for i, _ in active]] = 0.0
        slack = np.where(v > 0, 1 - Ax, 1 + Ax)
        slack[slack < STEP_TOLERANCE] = 0.0
        t = np.full(m, np.inf)
        blocks = np.abs(v) > STEP_TOLERANCE
        t[blocks] = slack[blocks] / np.abs(v[blocks])
        i = int(np.argmin(t))        # the first of tied rows
        if not np.isfinite(t[i]):
            raise UnboundedLP("no row blocks the step", direction=d)
        active.append((i, 1.0 if v[i] > 0 else -1.0))
        x = x + t[i] * d
        Ax = A @ x
    raise InfeasibleLP("active-set simplex did not converge")
