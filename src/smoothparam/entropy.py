"""Covering numbers and (n, eps)-entropy for a small zoo of dynamical
systems.

The orbit pseudo-metric d_n(x, y) = max_{0<=i<=n} d(f^i x, f^i y) turns the
covering number M(f, n, eps) into a computable bracket: a greedy cover of a
point cloud from above and a 2*eps-separated set from below (Bowen's
spanning and separated sets, 1971).  Linear circle and toral maps get
structure-aware fast paths (translation invariance makes d_n a function of
the gap alone) so the bracket stays resolved at iteration depths where a
naive grid would saturate.

Each path computes only the evidence that decides its bracket, with the
bits of the full computation (`_brackets`): circle flags from the last fold
down, toral line rows screened by their distance to the lattice (a float
error of about 1e-12 against a 1e-9 pad), and grid d_n balls carried to
n + 1 and cut by the new step alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from typing import Callable, Optional

import numpy as np

from .errors import CoverTestFailed, GridTooCoarse, PreconditionFailed

ENTROPY_INVARIANCE_SAMPLES = 10_000  # random points in the invariance check
TORAL_LINE_CHUNK = 1 << 16           # line rows (or circle gaps) read at a time
CIRCLE_GRID_CAP = 1 << 24            # circle grid points; keeps a*G < 2^53


# -- systems -------------------------------------------------------------------

@dataclass
class DynSystem:
    """A self-map of a compact invariant region with a base metric.

    `step` acts on arrays of shape (N, dim) and must map the region into
    itself; toroidal systems are stored with coordinates in [0, 1).
    `linear_multiplier` / `linear_matrix` mark the translation-invariant
    fast paths (x -> a*x on the circle, x -> A*x on the torus)."""
    name: str
    dim: int
    step: Callable[[np.ndarray], np.ndarray]
    metric: str                      # "euclidean" | "toroidal"
    box: tuple                       # ((lo, hi), ...) per coordinate
    iteration_cap: int = 64
    linear_multiplier: Optional[int] = None
    linear_matrix: Optional[np.ndarray] = None


def _wrap(p: np.ndarray) -> np.ndarray:
    """p mod 1, with the bits of np.mod(p, 1.0) for finite p, in less time."""
    return p - np.floor(p)


def identity_system() -> DynSystem:
    return DynSystem(name="identity", dim=1, step=lambda p: p,
                     metric="euclidean", box=((0.0, 1.0),))


def doubling_system() -> DynSystem:
    return DynSystem(name="doubling", dim=1,
                     step=lambda p: _wrap(2.0 * p),
                     metric="toroidal", box=((0.0, 1.0),),
                     linear_multiplier=2)


def toral_system() -> DynSystem:
    A = np.array([[2, 1], [1, 1]], dtype=np.int64)
    return DynSystem(name="toral", dim=2,
                     step=lambda p: _wrap(p @ A.T),
                     metric="toroidal", box=((0.0, 1.0), (0.0, 1.0)),
                     linear_matrix=A)


def polynomial_system() -> DynSystem:
    # (x, y) -> ((x^2 + y^2)/2 - 1/2, x*y) maps [-1,1]^2 into itself
    def step(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([0.5 * (x * x + y * y) - 0.5, x * y], axis=-1)
    return DynSystem(name="polynomial", dim=2, step=step,
                     metric="euclidean", box=((-1.0, 1.0), (-1.0, 1.0)))


def system_zoo() -> dict:
    return {s.name: s for s in (identity_system(), doubling_system(),
                                toral_system(), polynomial_system())}


def check_invariance(sys: DynSystem) -> None:
    """Sampled check that `step` maps the declared region into itself."""
    rng = np.random.default_rng(0)
    lo = np.array([b[0] for b in sys.box])
    hi = np.array([b[1] for b in sys.box])
    pts = rng.uniform(lo, hi, size=(ENTROPY_INVARIANCE_SAMPLES, sys.dim))
    img = sys.step(pts)
    if np.any(img < lo - 1e-9) or np.any(img > hi + 1e-9):
        bad = pts[np.any((img < lo - 1e-9) | (img > hi + 1e-9), axis=1)][0]
        raise PreconditionFailed(
            f"{sys.name}: image leaves the invariant region near {bad}")


# -- orbit metric --------------------------------------------------------------

def _dist(metric: str, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Distances between points whose coordinates run along the first axis
    (the squares summed in coordinate order)."""
    d = p - q
    if metric == "toroidal":
        np.abs(d, out=d)
        np.minimum(d, 1.0 - d, out=d)
    d *= d
    return np.sqrt(sum(d))


# -- covering numbers ----------------------------------------------------------

def _first_true(mask: np.ndarray) -> int:
    """Index of the first True entry of `mask`, or -1 if there is none."""
    k = int(np.argmax(mask)) if mask.size else 0
    return k if mask.size and mask[k] else -1


def _chunks(lo: int, hi: int):
    """Index arrays over [lo, hi) in doubling chunks of 64 up to
    TORAL_LINE_CHUNK: an early stop reads little, a full walk little at once."""
    c = 64
    while lo < hi:
        yield np.arange(lo, min(lo + c, hi), dtype=np.int64)
        lo, c = lo + c, min(2 * c, TORAL_LINE_CHUNK)


def _separated_count(far, circular: bool = True, G=None, s=0) -> tuple:
    """Largest verified arithmetic progression with pairwise dn > 2*eps,
    where far[k] says whether dn between points 0 and k exceeds 2*eps (a NaN
    distance is not separated) and G = len(far) points are on the line.
    `far` may instead read the flags at an index array, given G and s, the
    least k >= 1 with far[k] (0 if none).  Gaps are read in chunks."""
    if G is None:
        G, s, far = len(far), _first_true(far[1:]) + 1, far.__getitem__
    if s <= 0:
        return 1, G
    while s <= G:
        count = G // s if circular else 1 + (G - 1) // s
        if count <= 1:
            return 1, s
        if all(far(m * s % G if circular else m * s).all()
               for m in _chunks(1, count)):
            return count, s
        s += 1
    return 1, G


def _circle_above(a: int, n: int, G: int, ks: np.ndarray,
                  thr: float) -> np.ndarray:
    """Whether d_n between circle grid points i and i+k exceeds thr, for
    each gap 0 <= k < G of ks: prof[k] = max_{0<=i<=n} circdist(a^i k / G),
    a max of n + 1 folds.  Fold i is the integer (a^i mod G) k mod G (both
    factors are below G <= 2^24, so the int64 product stays below 2^48)
    divided by G, the value the fold loop x -> a x mod G reaches.  The max
    exceeds thr iff one fold does, so the folds are read from the last one
    down, each only at the gaps that no later fold has decided."""
    ks = np.asarray(ks, dtype=np.int64)
    above = np.zeros(len(ks), dtype=bool)
    rest = np.arange(len(ks))
    for i in range(n, -1, -1):
        frac = ks[rest] * pow(a, i, G) % G / G
        hit = np.minimum(frac, 1.0 - frac) > thr
        above[rest[hit]] = True
        rest = rest[~hit]
        if not rest.size:
            break
    return above


def _circle_first_above(a: int, n: int, G: int, thr: float) -> int:
    """Least k in [1, G) with prof[k] > thr, or 0 if there is none (no circle
    distance exceeds 1/2).  Below K0 = ceil(G / (2 a^n)) no fold wraps or
    reaches 1/2, so prof[k] is the last fold fl(a^n k / G), monotone in k,
    and is bisected; past K0 the flags are read in chunks."""
    if thr >= 0.5:
        return 0
    K0 = -(-G // (2 * a ** n)) if a > 0 else 1
    k = 1 + bisect_right(range(1, K0), thr,
                         key=lambda k: np.int64(a ** n * k) / G)
    if k < K0:
        return k
    for ks in _chunks(K0, G):
        hit = _first_true(_circle_above(a, n, G, ks, thr))
        if hit >= 0:
            return int(ks[hit])
    return 0


def _toral_eigen(A: np.ndarray):
    vals, vecs = np.linalg.eigh(A.astype(float))
    i = int(np.argmax(np.abs(vals)))
    lam = float(abs(vals[i]))
    vplus = vecs[:, i] / np.linalg.norm(vecs[:, i])
    vminus = vecs[:, 1 - i] / np.linalg.norm(vecs[:, 1 - i])
    return lam, vplus, vminus


def _rotated_square_slab_extent(vplus, vminus, w0, w1):
    """u-extent of the unit square within the slab w in [w0, w1] of its
    eigen-coordinates (u, w) = (p.vplus, p.vminus); None if the slab misses."""
    corners = [np.array([x, y]) for x in (0.0, 1.0) for y in (0.0, 1.0)]
    pts = []
    uw = [(float(c @ vplus), float(c @ vminus)) for c in corners]
    for u, w in uw:
        if w0 - 1e-12 <= w <= w1 + 1e-12:
            pts.append(u)
    edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
    for a, b in edges:
        ua, wa = uw[a]
        ub, wb = uw[b]
        for wc in (w0, w1):
            if (wa - wc) * (wb - wc) < 0:
                t = (wc - wa) / (wb - wa)
                pts.append(ua + t * (ub - ua))
    if not pts:
        return None
    return min(pts), max(pts)


def _toral_tile_cover_count(A: np.ndarray, n: int, eps: float) -> dict:
    """Cover the torus by eigen-aligned rectangles small enough that each sits
    inside a dn-ball of radius eps (corner test: dn is a norm on gaps before
    wrapping, so bounding the corners bounds the whole tile)."""
    lam, vplus, vminus = _toral_eigen(A)
    alpha = math.sqrt(2.0) * eps / lam ** n   # expanding-direction tile side
    beta = math.sqrt(2.0) * eps               # contracting-direction tile side
    ws = [float(c @ vminus) for c in (np.array([x, y])
                                      for x in (0.0, 1.0) for y in (0.0, 1.0))]
    j0 = math.floor(min(ws) / beta)
    j1 = math.floor(max(ws) / beta)
    total = 0
    for j in range(j0, j1 + 1):
        ext = _rotated_square_slab_extent(vplus, vminus, j * beta,
                                          (j + 1) * beta)
        if ext is None:
            continue
        u0, u1 = ext
        total += math.floor(u1 / alpha) - math.floor(u0 / alpha) + 1
    return {"count": total, "lam": lam, "alpha": alpha, "beta": beta,
            "rows": j1 - j0 + 1}


def _toral_near_rows(vplus, h: float, J: int, R: float) -> np.ndarray:
    """Mask of the rows j < J whose point j h vplus may lie within R of a
    lattice point: for each (p, q) in the box about the segment t vplus,
    0 <= t <= (J - 1) h, padded by R, and within R of its line, the rows
    whose t lies on its chord of radius R, padded by 2 rows each way.  These
    float projections and distances err by far less than the 1e-9 by which
    callers pad R, or than one row."""
    ends = np.array([[0.0, 0.0], (J - 1) * h * vplus])
    lo, hi = np.floor(ends.min(axis=0) - R), np.ceil(ends.max(axis=0) + R)
    P = _grid_points([np.arange(lo[0], hi[0] + 1.0),
                      np.arange(lo[1], hi[1] + 1.0)])
    t = P @ vplus                                   # projections on the line
    off = np.hypot(*(P - t[:, None] * vplus).T)     # distances to the line
    mask = np.zeros(J, dtype=bool)
    for tc, d in zip(t[off <= R], off[off <= R]):
        w = math.sqrt(R * R - d * d)
        j0 = max(math.floor((tc - w) / h) - 2, 0)
        mask[j0:max(math.ceil((tc + w) / h) + 3, j0)] = True
    return mask


def _line_separated_count(close: np.ndarray, J: int) -> tuple:
    """_separated_count(far, circular=False) for the J flags far that are
    False exactly at the rows of `close` (ascending): the multiples of a
    spacing s below J are all far iff no row of close in [1, J) is one."""
    close = close[(close >= 1) & (close < J)]
    lead = np.flatnonzero(close != np.arange(1, len(close) + 1))
    s = int(lead[0]) + 1 if lead.size else len(close) + 1   # the first far
    while s < J and (close % s == 0).any():
        s += 1
    return (1 + (J - 1) // s, s) if s < J else (1, J)


def _toral_line_separated(sys: DynSystem, n: int, eps: float) -> dict:
    """2*eps-separated set along the expanding eigendirection.  The map is
    linear mod 1, so dn between candidates j and j+m depends only on m; the
    1D arithmetic-progression search applies verbatim.

    The search reads only whether dn(0, j) > 2*eps.  Step 0 decides a row
    whose point is far from every lattice point: its float distance (the
    products fl(j h) and fl(t vplus[i]), the wrap, the folds, squares and
    sqrt, each rounding within an ulp of a value at most T = (J - 1) h <=
    1/(2 eps), with T <= 1,000 since J <= 4,000,000) lies within about
    1e-12 of the exact distance of j h vplus from Z^2, so a row more than
    R = 2*eps + 1e-9 from every lattice point reads far at step 0 with no
    evaluation (`_toral_near_rows`).  The other rows are walked in chunks,
    and a row is stepped only while its running max is still undecided.
    Every value is elementwise and A is an integer matrix, so the flags
    equal those of a full profile; the search reads only the few rows that
    are not far.  Halving J keeps the same points, so it searches a prefix
    of the same flags."""
    A = sys.linear_matrix
    lam, vplus, _ = _toral_eigen(A)
    h = eps / (2.0 * lam ** n)
    L = 1.0 / (2.0 * eps)
    J = min(int(math.ceil(L / h)), 4_000_000)
    mask = _toral_near_rows(vplus, h, J, 2.0 * eps + 1e-9)
    close = []
    for j0 in range(0, J, TORAL_LINE_CHUNK):
        rows = j0 + np.flatnonzero(mask[j0:j0 + TORAL_LINE_CHUNK])
        t = rows.astype(float) * h
        # step 0 on coordinates, in the float operations of _wrap and _dist
        x, y = _wrap(t * vplus[0]), _wrap(t * vplus[1])
        best = np.sqrt(np.minimum(x, 1.0 - x) ** 2
                       + np.minimum(y, 1.0 - y) ** 2)
        keep = ~(best > 2.0 * eps)
        rows, p, best = rows[keep], np.stack([x, y], axis=1)[keep], best[keep]
        for _ in range(n):
            if not rows.size:
                break
            p = sys.step(p)
            best = np.maximum(best, _dist("toroidal", p.T, 0.0))
            keep = ~(best > 2.0 * eps)
            rows, p, best = rows[keep], p[keep], best[keep]
        close.append(rows)
    close = np.concatenate(close)
    while True:
        count, spacing = _line_separated_count(close, J)
        if count > 1 or J < 64:
            return {"count": count, "spacing": spacing, "J": J, "h": h}
        J //= 2


def _grid_axes(box, resolution: float, torus: bool) -> list:
    """The coordinates along each axis of the product grid; a torus leaves
    out the far edge, which is the near edge again."""
    axes = []
    for lo, hi in box:
        m = max(int(math.ceil((hi - lo) / resolution)), 1)
        ax = np.linspace(lo, hi, m + 1)
        axes.append(ax[ax < 1.0] if torus else ax)
    return axes


def _grid_points(axes) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in mesh], axis=-1)


def _dn_balls(orbit: np.ndarray, metric: str, axes, r: float, memo=None):
    """ball(idx): the indices j with d_n(idx, j) <= r on the product grid over
    `axes`, whose point j has the orbit orbit[j] (shape (n+1, dim)).  d_n
    bounds every step-0 coordinate gap, and c index steps along an axis span
    at least c*h (h its least spacing; on a torus, with the wrap gap, stepping
    cyclically), so j lies within r/h steps, padded against rounding, of idx
    on each axis; d_n itself is computed on that window only (a torus axis
    shorter than the window repeats indices).

    `memo` maps a centre to (k, its ball in d_{k-1}) and takes each ball
    computed here.  d_n = max(d_{k-1}, the distances at steps k..n), and a
    max of floats is exact, so a memo ball cut by those steps alone is the
    ball in d_n."""
    torus = metric == "toroidal"
    shape = [len(ax) for ax in axes]
    steps = orbit.shape[1]
    memo = {} if memo is None else memo
    win = []
    for ax, m in zip(axes, shape):
        h = np.diff(np.append(ax, ax[0] + 1.0) if torus else ax).min(
            initial=np.inf)
        w = int(min(r * (1 + 1e-9) / h, m))
        win.append((w, np.arange(-w, m + w) % m if torus else np.arange(m)))

    def ball(idx):
        k, cand = memo.get(idx, (0, None))
        if cand is None:
            cand = np.zeros(1, dtype=np.intp)
            for i, m, (w, ext) in zip(np.unravel_index(idx, shape), shape,
                                      win):
                ix = (ext[i:i + 2 * w + 1] if torus
                      else ext[max(i - w, 0):i + w + 1])
                cand = (cand[:, None] * m + ix).ravel()
        if k < steps:
            d = _dist(metric, orbit[idx, k:].T[..., None], orbit[cand, k:].T)
            cand = cand[reduce(np.maximum, d) <= r]     # max over the steps
            memo[idx] = (steps, cand)
        return cand
    return ball


def _brackets(sys: DynSystem, n_values, eps: float, resolution: float):
    """Yield the bracket {M_lower, M_upper, meta} of M(f, n, eps) for each n
    of the ascending `n_values`, walking each orbit once.  Each path skips
    the work whose outcome is already fixed, with the same bits in every
    flag, ball and count:

    - circle (x -> a x on G grid points): d_n between points i and i+k
      depends on the gap k alone.  The cover width and the first spacing are
      bisected on the monotone prefix below K0 (`_circle_first_above`), and
      every other flag is decided by its folds from the last one down, each
      read only where no later fold exceeds the threshold (`_circle_above`).
    - toral line: a row whose point lies more than 2*eps + 1e-9 from every
      lattice point is far at step 0 and is never evaluated, and the spacing
      search reads only the rows that are not far
      (`_toral_line_separated`); the tiling is counted in closed form.
    - grid (any other map): d_n only grows with n, so the 2*eps-separated
      set is carried forward (it stays separated, so M_lower never falls),
      and each d_n ball, found first on a window of grid indices about its
      centre, is carried to the next n and cut by the new steps alone
      (`_dn_balls`, one memo per radius).  A step that leaves every orbit
      point bitwise where it was adds nothing to d_n: the bracket of the
      n before is yielded again."""
    if resolution > eps / 4.0 + 1e-15:
        raise GridTooCoarse(
            f"resolution {resolution} exceeds eps/4 = {eps / 4.0}")
    if n_values[-1] > sys.iteration_cap:
        raise PreconditionFailed(f"n={n_values[-1]} exceeds iteration cap")
    circle = sys.linear_multiplier is not None and sys.dim == 1
    if circle:
        # d_n between grid points i and i+k depends only on k: `_circle_above`
        a, G = sys.linear_multiplier, max(int(round(1.0 / resolution)), 8)
        if G > CIRCLE_GRID_CAP:
            raise PreconditionFailed(
                f"circle grid G={G} exceeds {CIRCLE_GRID_CAP} points")
    elif sys.linear_matrix is None:
        axes = _grid_axes(sys.box, resolution, sys.metric == "toroidal")
        orbits = [_grid_points(axes)]
        N = len(orbits[0])
        chosen, cover_memo, sep_memo, last = [], {}, {}, None

    for n in n_values:
        if circle:
            # contiguous arcs, each through the gap-prefix it surely covers
            width = (_circle_first_above(a, n, G, eps) or G) - 1
            M_upper = -(-G // (2 * width + 1))
            M_lower, spacing = _separated_count(
                lambda ks: _circle_above(a, n, G, ks, 2.0 * eps), G=G,
                s=_circle_first_above(a, n, G, 2.0 * eps))
            meta = {"path": "circle-linear", "grid": G,
                    "cover_halfwidth": width, "sep_spacing": spacing}
        elif sys.linear_matrix is not None:
            up = _toral_tile_cover_count(sys.linear_matrix, n, eps)
            lo = _toral_line_separated(sys, n, eps)
            M_lower, M_upper = lo["count"], up["count"]
            meta = {"path": "toral-linear", "tile": up, "line": lo}
        else:
            seen = len(orbits)
            while len(orbits) <= n:
                orbits.append(sys.step(orbits[-1]))
            if last is not None and all(
                    np.array_equal(o, orbits[seen - 1])
                    for o in orbits[seen:n + 1]):
                yield last
                continue
            orbit = np.stack(orbits, axis=1)
            ball = _dn_balls(orbit, sys.metric, axes, eps + 1e-12,
                             cover_memo)
            covered = np.zeros(N, dtype=bool)
            M_upper = 0
            for idx in range(N):
                if not covered[idx]:
                    covered[ball(idx)] = True
                    M_upper += 1
            ball = _dn_balls(orbit, sys.metric, axes, 2.0 * eps, sep_memo)
            blocked = np.zeros(N, dtype=bool)
            for idx in chosen:
                blocked[ball(idx)] = True
            for idx in range(N):
                if not blocked[idx]:
                    chosen.append(idx)
                    blocked[ball(idx)] = True
            M_lower = len(chosen)
            meta = {"path": "grid-greedy", "grid_points": N}
            # only this n's centres stay, so a memo holds one greedy's balls
            cover_memo = {k: v for k, v in cover_memo.items()
                          if v[0] > n}
            sep_memo = {k: v for k, v in sep_memo.items() if v[0] > n}
        if M_lower > M_upper:
            raise CoverTestFailed(
                f"{sys.name}: a {M_lower}-point 2*eps-separated set exceeds "
                f"a {M_upper}-ball eps-cover at n={n}, eps={eps}")
        last = {"M_lower": M_lower, "M_upper": M_upper, "meta": meta}
        yield last


def covering_number(sys: DynSystem, n: int, eps: float,
                    resolution: float) -> dict:
    """Bracket {M_lower, M_upper} for the covering number M(f, n, eps).

    M_upper comes from an explicit eps-cover (greedy over a point cloud, or a
    structure-aware tiling for linear maps); M_lower from a verified
    2*eps-separated set.  The bracket gap is reported, never hidden."""
    return next(_brackets(sys, [n], eps, resolution))


# -- sweeps --------------------------------------------------------------------

@dataclass
class EntropyReport:
    system: str
    n_values: list
    eps_values: list
    rows: list                      # dicts: n, eps, M_lower, M_upper, h
    h_estimates: dict               # eps -> slope diagnostic
    grid_spec: dict = field(default_factory=dict)

    def cell(self, n: int, eps: float) -> dict:
        for r in self.rows:
            if r["n"] == n and r["eps"] == eps:
                return r
        raise PreconditionFailed(f"no row at n={n}, eps={eps}")

    def to_csv(self) -> str:
        lines = ["n,eps,M_lower,M_upper,h"]
        for r in self.rows:
            lines.append(f"{r['n']},{r['eps']:.10g},{r['M_lower']},"
                         f"{r['M_upper']},{r['h']:.10g}")
        return "\n".join(lines) + "\n"

    def check_invariants(self) -> list:
        """Cell-by-cell violations of the bracketing and monotonicity
        contracts; empty list means clean."""
        bad = []
        for r in self.rows:
            if r["M_lower"] > r["M_upper"]:
                bad.append(f"lower>upper at n={r['n']} eps={r['eps']}")
        for eps in self.eps_values:
            col = [self.cell(n, eps) for n in self.n_values]
            for a, b in zip(col, col[1:]):
                for key in ("M_lower", "M_upper"):
                    if b[key] < a[key]:
                        bad.append(f"{key} decreased in n at eps={eps}: "
                                   f"n={a['n']}->{b['n']}")
        for n in self.n_values:
            row = [self.cell(n, eps)
                   for eps in sorted(self.eps_values, reverse=True)]
            for a, b in zip(row, row[1:]):
                for key in ("M_lower", "M_upper"):
                    if b[key] < a[key]:
                        bad.append(f"{key} decreased as eps shrank at n={n}")
        return bad


def _resolution_for(sys: DynSystem, n_max: int, eps: float) -> float:
    if sys.linear_multiplier is not None:
        # keep eps*G ~ constant across the eps sweep so the prefix widths
        # match cell-to-cell and the bracket never saturates before n_max
        return eps / (4.0 * sys.linear_multiplier ** n_max)
    return eps / 4.0


def entropy_sweep(sys: DynSystem, n_values, eps_values) -> EntropyReport:
    """Tabulate M(f, n, eps) and the per-cell growth diagnostic
    h(f, n, eps) = (log2 M_upper(n) - log2 M_upper(n_min)) / (n - n_min)
    (zero at the base row), plus a
    stabilization diagnostic per eps: the slope of log2 M_upper against n
    over the top half of the n range.  The diagnostic is an estimate of the
    entropy at scale eps, never a claim of the (uncomputable) double limit.

    An eps-cover in d_n is one in every d_m with m <= n, so each M_upper(n)
    is the least cover found at any n' >= n of the sweep."""
    n_values = sorted(int(n) for n in n_values)
    eps_values = sorted(float(e) for e in eps_values)
    if not n_values:
        raise PreconditionFailed("n_values is empty")
    if n_values[0] < 0:
        raise PreconditionFailed(f"n_values must be >= 0, got {n_values[0]}")
    if len(set(n_values)) < len(n_values):
        raise PreconditionFailed(f"n_values repeats an n: {n_values}")
    for eps in eps_values:
        if not (math.isfinite(eps) and eps > 0):
            raise PreconditionFailed(
                f"eps_values must be finite and > 0, got {eps}")
    check_invariance(sys)
    rows = []
    grid_spec = {}
    h_est = {}
    ns = [n for n in n_values if n >= n_values[len(n_values) // 2]]
    for eps in eps_values:
        res = _resolution_for(sys, n_values[-1], eps)
        grid_spec[eps] = res
        cells = list(_brackets(sys, n_values, eps, res))
        uppers = list(accumulate(reversed([c["M_upper"] for c in cells]),
                                 min))[::-1]
        logs = [math.log2(m) for m in uppers]
        for i, (n, cov, M_upper) in enumerate(zip(n_values, cells, uppers)):
            h = (logs[i] - logs[0]) / (n - n_values[0]) if i else 0.0
            rows.append({"n": n, "eps": eps, "M_lower": cov["M_lower"],
                         "M_upper": M_upper, "h": h})
        h_est[eps] = (float(np.polyfit(ns, logs[-len(ns):], 1)[0])
                      if len(ns) >= 2 else float("nan"))
    return EntropyReport(system=sys.name, n_values=n_values,
                         eps_values=eps_values, rows=rows,
                         h_estimates=h_est, grid_spec=grid_spec)
