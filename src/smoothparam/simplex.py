"""Dense primal simplex for the norming LPs.

The problems are tiny in the coefficient dimension and fat in constraints
(maximize a linear functional of polynomial coefficients subject to
-1 <= Q(z) <= 1 over a sample cloud), and x = 0 is always feasible, so a
slack-basis start suffices.  Float pivoting, with a Bland's-rule fallback
over Fractions when the float run cycles or degenerates.  The fallback rounds
every entry of A, b and c with `limit_denominator(10**12)`, so it solves a
nearby rational LP exactly, not the float LP."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import InfeasibleLP, UnboundedLP

LP_TOLERANCE = 1e-9                  # pivot, optimality and feasibility slack
MAX_ITER = 20000                     # pivots per simplex run
MAX_ROUNDS = 60                      # constraint-generation rounds per LP


def simplex_maximize(c, A, b):
    """maximize c.x  subject to  A x <= b, x free.

    Requires b >= 0 (so the slack basis is feasible).  Free variables are
    handled by the x = u - v split.  Returns (x, value).  Raises UnboundedLP
    with a witness direction if the objective is unbounded."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if np.any(b < -LP_TOLERANCE):
        raise InfeasibleLP("slack start needs nonnegative right-hand sides")
    m, n = A.shape
    # split free variables
    A2 = np.hstack([A, -A])
    c2 = np.concatenate([c, -c])
    try:
        x2, val = _primal_simplex_float(c2, A2, b)
    except _NumericalTrouble:
        x2, val = _primal_simplex_exact(c2, A2, b)
        x2 = np.array([float(v) for v in x2])
        val = float(val)
    x = x2[:n] - x2[n:]
    return x, val


def norming_lp(c, M, working=None):
    """maximize c.x subject to -1 <= M x <= 1, by constraint generation:
    solve on a small working subset of rows, add the worst violators, repeat.

    Returns (x, value, working_set).  The working set can be fed back in for
    warm starts across related objectives."""
    M = np.asarray(M, dtype=float)
    nrows = M.shape[0]
    if working is None:
        step = max(1, nrows // (4 * M.shape[1] + 4))
        working = sorted(set(range(0, nrows, step)) | {nrows - 1})
    else:
        working = sorted(set(working))
    for _ in range(MAX_ROUNDS):
        Aw = np.vstack([M[working], -M[working]])
        bw = np.ones(2 * len(working))
        try:
            x, val = simplex_maximize(c, Aw, bw)
        except UnboundedLP as e:
            d = e.direction
            if d is None or not np.any(d):
                raise
            viol = np.abs(M @ d)
            worst = np.argsort(viol)[-8:]
            if viol[worst[-1]] <= LP_TOLERANCE:
                raise
            before = len(working)
            working = sorted(set(working) | set(int(w) for w in worst))
            if len(working) == before:
                raise
            continue
        vals = np.abs(M @ x)
        worst = np.argsort(vals)[-8:]
        if vals[worst[-1]] <= 1 + LP_TOLERANCE:
            # prune to binding rows so warm-started working sets stay small;
            # degenerate objectives can make every row binding, so cap the
            # carry-over (evenly subsampled) -- the next call re-adds what
            # it actually needs
            wa = np.asarray(working)
            binding = wa[np.abs(M[wa] @ x) >= 1 - 1e-6]
            keep = binding if len(binding) >= M.shape[1] else wa
            cap = 6 * M.shape[1]
            if len(keep) > cap:
                keep = keep[np.linspace(0, len(keep) - 1, cap).astype(int)]
            return x, val, sorted(int(w) for w in keep)
        working = sorted(set(working) | set(int(w) for w in worst))
    raise InfeasibleLP("constraint generation did not converge")


class _NumericalTrouble(Exception):
    pass


def _primal_simplex_float(c, A, b):
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -c
    basis = list(range(n, n + m))
    for it in range(MAX_ITER):
        j = int(np.argmin(T[m, :-1]))
        if T[m, j] >= -LP_TOLERANCE:
            x = np.zeros(n + m)
            for i, bi in enumerate(basis):
                x[bi] = T[i, -1]
            return x[:n], float(T[m, -1])
        col = T[:m, j]
        mask = col > LP_TOLERANCE
        if not mask.any():
            # unbounded: ray along variable j
            direction = np.zeros(n)
            if j < n:
                direction[j] = 1.0
            raise UnboundedLP("objective unbounded", direction=direction)
        ratios = np.full(m, np.inf)
        ratios[mask] = T[:m, -1][mask] / col[mask]
        i = int(np.argmin(ratios))
        piv = T[i, j]
        if abs(piv) < LP_TOLERANCE:
            raise _NumericalTrouble
        T[i, :] /= piv
        rows = np.arange(m + 1) != i
        T[rows, :] -= np.outer(T[rows, j], T[i, :])
        basis[i] = j
    raise _NumericalTrouble


def _primal_simplex_exact(c, A, b):
    """Bland's rule over Fractions; slow but cycle-free."""
    m, n = A.shape
    T = [[Fraction(0)] * (n + m + 1) for _ in range(m + 1)]
    for i in range(m):
        for j in range(n):
            T[i][j] = Fraction(A[i, j]).limit_denominator(10**12)
        T[i][n + i] = Fraction(1)
        T[i][-1] = Fraction(b[i]).limit_denominator(10**12)
    for j in range(n):
        T[m][j] = -Fraction(c[j]).limit_denominator(10**12)
    basis = list(range(n, n + m))
    for _ in range(MAX_ITER):
        j = next((jj for jj in range(n + m) if T[m][jj] < 0), None)
        if j is None:
            x = [Fraction(0)] * (n + m)
            for i, bi in enumerate(basis):
                x[bi] = T[i][-1]
            return x[:n], T[m][-1]
        candidates = [(T[i][-1] / T[i][j], basis[i], i)
                      for i in range(m) if T[i][j] > 0]
        if not candidates:
            direction = np.zeros(n)
            if j < n:
                direction[j] = 1.0
            raise UnboundedLP("objective unbounded", direction=direction)
        _, _, i = min(candidates)
        piv = T[i][j]
        T[i] = [v / piv for v in T[i]]
        for r in range(m + 1):
            if r != i and T[r][j] != 0:
                f = T[r][j]
                T[r] = [a - f * p for a, p in zip(T[r], T[i])]
        basis[i] = j
    raise InfeasibleLP("exact simplex iteration cap reached")
