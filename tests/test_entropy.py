"""Covering numbers and entropy slopes on the system zoo: identity, circle
doubling, the toral automorphism, and a nonlinear polynomial map.  Brackets
are checked against orbit-loop oracles and known growth rates; the one-walk
bracket generator is checked against a restart-per-n circle profile and
against per-cell covering numbers; the toral line search, the grid greedy
and its index-window balls are checked against full-scan oracles, and the
floor-based torus wrap against np.mod."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothparam import entropy
from smoothparam.entropy import (DynSystem, EntropyReport, _brackets,
                                 _circle_above, _circle_first_above,
                                 _dn_balls, _first_true, _grid_axes,
                                 _grid_points, _line_separated_count,
                                 _separated_count, _toral_eigen,
                                 _toral_line_separated, _wrap,
                                 covering_number, doubling_system,
                                 entropy_sweep, identity_system,
                                 polynomial_system, system_zoo, toral_system)
from smoothparam.errors import GridTooCoarse, PreconditionFailed


def test_grid_too_coarse_and_iteration_cap():
    sys = identity_system()
    with pytest.raises(GridTooCoarse):
        covering_number(sys, 1, 0.1, resolution=0.1)
    with pytest.raises(PreconditionFailed):
        covering_number(sys, sys.iteration_cap + 1, 0.1, resolution=0.01)


def test_identity_covering_is_n_independent():
    sys = identity_system()
    eps = 0.1
    outs = [covering_number(sys, n, eps, resolution=eps / 8) for n in (1, 4, 8)]
    uppers = {o["M_upper"] for o in outs}
    assert len(uppers) == 1
    for o in outs:
        # covering [0, 1] at scale 0.1 takes about 1/(2 eps) = 5 intervals
        assert 4 <= o["M_lower"] <= o["M_upper"] <= 11


def test_doubling_bracket_and_growth():
    sys = doubling_system()
    eps = 1 / 40
    prev = None
    for n in range(2, 9):
        out = covering_number(sys, n, eps, resolution=eps / (4 * 2 ** 10))
        assert out["M_lower"] <= out["M_upper"] <= 4 * out["M_lower"]
        if prev is not None:
            ratio = out["M_upper"] / prev
            assert 1.8 <= ratio <= 2.2      # growth rate of the doubling map
        prev = out["M_upper"]


def test_toral_growth_matches_eigenvalue():
    sys = toral_system()
    lam = (3 + math.sqrt(5)) / 2
    eps = 1 / 16
    uppers, lowers = [], []
    for n in range(2, 9):
        out = covering_number(sys, n, eps, resolution=eps / 8)
        assert out["M_lower"] <= out["M_upper"]
        uppers.append(out["M_upper"])
        lowers.append(out["M_lower"])
    gu = (uppers[-1] / uppers[0]) ** (1 / (len(uppers) - 1))
    gl = (lowers[-1] / lowers[0]) ** (1 / (len(lowers) - 1))
    assert abs(gu - lam) <= 0.15 * lam
    assert abs(gl - lam) <= 0.15 * lam


def test_polynomial_system_bracket_valid():
    sys = polynomial_system()
    for n in (1, 3):
        out = covering_number(sys, n, 0.2, resolution=0.04)
        assert 1 <= out["M_lower"] <= out["M_upper"]


def test_sweep_identity_entropy_near_zero():
    rep = entropy_sweep(identity_system(), list(range(1, 9)), [0.1, 0.05])
    assert rep.check_invariants() == []
    for slope in rep.h_estimates.values():
        assert abs(slope) <= 0.01


def test_sweep_doubling_slope_near_one():
    rep = entropy_sweep(doubling_system(), list(range(1, 13)), [0.02, 0.01])
    assert rep.check_invariants() == []
    for slope in rep.h_estimates.values():
        assert 0.8 <= slope <= 1.2


def test_sweep_monotonicity_and_csv():
    rep = entropy_sweep(doubling_system(), [1, 2, 3, 4], [0.1, 0.05])
    assert rep.check_invariants() == []
    # M_upper is monotone increasing in n and in 1/eps
    for eps in (0.1, 0.05):
        ms = [rep.cell(n, eps)["M_upper"] for n in (1, 2, 3, 4)]
        assert ms == sorted(ms)
    for n in (1, 2, 3, 4):
        assert rep.cell(n, 0.05)["M_upper"] >= rep.cell(n, 0.1)["M_upper"]
    csv = rep.to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "n,eps,M_lower,M_upper,h"
    assert len(lines) == 1 + 4 * 2


def _prefix_cover_count(prof, eps, G):
    """Greedy cover by contiguous arcs on a full gap profile: each ball is
    used through the largest gap-prefix it certainly covers."""
    width = _first_true(prof[1:] > eps)
    if width < 0:
        width = G - 1
    block = 2 * width + 1
    return -(-G // block), width


def _draws(value):
    """Stands in for st.data() in an @example: every draw gives value."""
    return SimpleNamespace(draw=lambda strategy: value)


def _circle_profile_oracle(a, n, G):
    """d_n between circle grid points i and i+k, rebuilt from i = 0:
    profile[k] = max_{0<=i<=n} circdist(a^i * k / G)."""
    cur = np.arange(G, dtype=np.int64)
    prof = np.zeros(G)
    for _ in range(n + 1):
        frac = cur / G
        prof = np.maximum(prof, np.minimum(frac, 1.0 - frac))
        cur = (cur * a) % G
    return prof


@given(a=st.sampled_from([2, 3]), G=st.integers(8, 4096),
       ns=st.lists(st.integers(0, 12), min_size=1, max_size=6, unique=True),
       data=st.data())
# 2 a^n k = G at k = K0 = 5: prof[5] = 1/2 is the first gap above 2*eps (or,
# at eps = .45, above eps), one past the bisected range
@example(a=2, G=80, ns=[3], data=_draws(0.225))
@example(a=2, G=80, ns=[1, 3], data=_draws(0.45))
# no gap is above 2*eps = .4999 (the nearest to 1/2 is 2048/4097): none
# below K0, so the chunked scan walks all of G; and none above eps = 1/2
@example(a=2, G=4097, ns=[0, 7], data=_draws(0.24995))
@example(a=2, G=4096, ns=[0, 7], data=_draws(0.5))
# at n = 12, 3^12 > G: K0 = 1, so both first exceedances come from the scan
@example(a=3, G=4096, ns=[2, 12], data=_draws(0.01))
def test_circle_brackets_match_restart_per_n_profile(a, G, ns, data):
    eps = data.draw(st.floats(4.0 / G, 0.5))
    circle = DynSystem(name=f"x{a}", dim=1,
                       step=lambda p: np.mod(a * p, 1.0), metric="toroidal",
                       box=((0.0, 1.0),), linear_multiplier=a)
    ns = sorted(ns)
    for n, got in zip(ns, _brackets(circle, ns, eps, 1.0 / G)):
        prof = _circle_profile_oracle(a, n, G)
        M_upper, width = _prefix_cover_count(prof, eps, G)
        M_lower, spacing = _separated_count(prof > 2.0 * eps)
        assert got == {"M_lower": M_lower, "M_upper": M_upper,
                       "meta": {"path": "circle-linear", "grid": G,
                                "cover_halfwidth": width,
                                "sep_spacing": spacing}}


@settings(max_examples=60)
@given(a=st.sampled_from([2, 3]), G=st.integers(8, 1 << 16),
       n=st.integers(0, 20), thr=st.floats(0.0, 0.55))
@example(a=2, G=80, n=3, thr=0.45)         # the first exceedance is K0
# at K0 = 6 the last fold wraps: 48/90 = .53, yet prof[6] = 42/90 = .47
@example(a=2, G=90, n=3, thr=0.48)
@example(a=2, G=1 << 16, n=0, thr=0.3)     # bisected below K0 = 32,768
@example(a=2, G=4096, n=3, thr=0.4999)     # just below 1/2: found at K0
@example(a=2, G=4097, n=12, thr=0.4999)    # K0 = 1 and no gap is above
@example(a=-2, G=1000, n=5, thr=0.3)       # K0 = 1 for a <= 0: a plain scan
@example(a=0, G=1000, n=5, thr=0.3)
def test_circle_first_above_matches_full_profile(a, G, n, thr):
    prof = _circle_profile_oracle(a, n, G)
    assert _circle_first_above(a, n, G, thr) == \
        _first_true(prof[1:] > thr) + 1


def test_circle_grid_is_capped():
    # G = 4 * 2^40 * 1000 here; the whole grid was once allocated per eps
    with pytest.raises(PreconditionFailed, match="circle grid G=4398"):
        entropy_sweep(doubling_system(), [1, 40], [1 / 1000])
    with mock.patch.object(entropy, "CIRCLE_GRID_CAP", 64):
        covering_number(doubling_system(), 2, 1 / 8, resolution=1 / 64)
        with pytest.raises(PreconditionFailed, match="G=65 exceeds 64"):
            covering_number(doubling_system(), 2, 1 / 8, resolution=1 / 65)


@pytest.mark.parametrize("sys, ns, eps_values", [
    (doubling_system(), range(1, 9), [0.1, 0.05]),
    (identity_system(), range(1, 7), [0.1, 0.05]),
    (toral_system(), range(2, 7), [1 / 8, 1 / 16]),
])
def test_sweep_cells_equal_covering_number(sys, ns, eps_values):
    rep = entropy_sweep(sys, list(ns), eps_values)
    assert len(rep.rows) == len(ns) * len(eps_values)
    for r in rep.rows:
        cov = covering_number(sys, r["n"], r["eps"], rep.grid_spec[r["eps"]])
        assert (r["M_lower"], r["M_upper"]) == (cov["M_lower"],
                                                 cov["M_upper"])


def test_polynomial_sweep_lower_bracket_never_falls():
    # restarting the separated set at every n gave M_lower 121 -> 120 at
    # n = 1 -> 2; carrying it forward keeps it separated in d_n >= d_{n-1}
    rep = entropy_sweep(polynomial_system(), [1, 2, 3], [0.1])
    assert rep.check_invariants() == []


def _cover_count_oracle(prof, eps, G):
    above = np.nonzero(prof[1:] > eps)[0]
    width = int(above[0]) if above.size else G - 1
    return -(-G // (2 * width + 1)), width


def _separated_count_oracle(prof, eps, G, circular):
    """The spacing search with the first exceedance read off a full
    np.nonzero index array."""
    above = np.nonzero(prof[1:] > 2.0 * eps)[0]
    if not above.size:
        return 1, G
    s = int(above[0]) + 1
    while s <= G:
        count = G // s if circular else 1 + (G - 1) // s
        if count <= 1:
            return 1, s
        gaps = np.arange(1, count, dtype=np.int64) * s
        if circular:
            gaps %= G
        if np.all(prof[gaps] > 2.0 * eps):
            return count, s
        s += 1
    return 1, G


@given(prof=st.lists(st.sampled_from([0.0, 0.1, 0.15, 0.3, float("nan")]),
                     min_size=1, max_size=40),
       circular=st.booleans())
def test_first_exceedance_counts_match_nonzero_scan(prof, circular):
    prof = np.array(prof)
    G, eps = len(prof), 0.1
    assert _prefix_cover_count(prof, eps, G) == \
        _cover_count_oracle(prof, eps, G)
    assert _separated_count(prof > 2.0 * eps, circular) == \
        _separated_count_oracle(prof, eps, G, circular)


def _rows_dist(metric, p, q):
    """The orbit metric on points stored as rows (coordinates last), kept
    apart from `_dist` so the oracles below check its bits."""
    d = np.abs(p - q)
    if metric == "toroidal":
        d = np.minimum(d, 1.0 - d)
    return np.sqrt(np.sum(d * d, axis=-1))


def _toral_line_oracle(sys, n, eps):
    """The full-profile line search: every candidate on the line is stepped
    n times, and each halving of J rebuilds the profile."""
    lam, vplus, _ = _toral_eigen(sys.linear_matrix)
    h = eps / (2.0 * lam ** n)
    J = min(int(math.ceil((1.0 / (2.0 * eps)) / h)), 4_000_000)
    while True:
        pts = _wrap(np.outer(np.arange(J, dtype=float) * h, vplus))
        prof = _rows_dist("toroidal", pts, np.zeros(2))
        p = pts
        for _ in range(n):
            p = sys.step(p)
            prof = np.maximum(prof, _rows_dist("toroidal", p, np.zeros(2)))
        count, spacing = _separated_count(prof > 2.0 * eps, circular=False)
        if count > 1 or J < 64:
            return {"count": count, "spacing": spacing, "J": J, "h": h}
        J //= 2


@settings(max_examples=40)
@given(eps=st.floats(1 / 40, 1 / 4), n=st.integers(0, 8),
       chunk=st.integers(50, 5000))
@example(eps=1 / 2, n=3, chunk=50)       # J halves 72 -> 36
@example(eps=1 / 2, n=8, chunk=1000)     # J halves 8828 -> 34
def test_toral_line_matches_full_profile(eps, n, chunk):
    sys = toral_system()
    lam = _toral_eigen(sys.linear_matrix)[0]
    # keep the oracle's full profile small: J ~ lam^n / eps^2 <= 300,000
    n = min(n, int(math.log(300_000 * eps * eps) / math.log(lam)))
    with mock.patch.object(entropy, "TORAL_LINE_CHUNK", chunk):
        got = _toral_line_separated(sys, n, eps)
    assert got == _toral_line_oracle(sys, n, eps)


def _grid_greedy_oracle(sys, ns, eps, resolution):
    """(M_lower, M_upper) per ascending n from d_n to every grid point, the
    separated set carried across n."""
    orbits = [_grid_points(_grid_axes(sys.box, resolution, False))]
    N = len(orbits[0])
    chosen = []

    def dn_from(idx):
        d = _rows_dist(sys.metric, orbits[0][idx], orbits[0])
        for orb in orbits[1:]:
            d = np.maximum(d, _rows_dist(sys.metric, orb[idx], orb))
        return d

    for n in ns:
        while len(orbits) <= n:
            orbits.append(sys.step(orbits[-1]))
        covered = np.zeros(N, dtype=bool)
        M_upper = 0
        for idx in range(N):
            if not covered[idx]:
                covered |= dn_from(idx) <= eps + 1e-12
                M_upper += 1
        mind = np.full(N, np.inf)
        for idx in chosen:
            mind = np.minimum(mind, dn_from(idx))
        for idx in range(N):
            if mind[idx] > 2.0 * eps:
                chosen.append(idx)
                mind = np.minimum(mind, dn_from(idx))
        yield len(chosen), M_upper


def _skew_torus():
    """A non-linear toral map with no fast path: the grid path with cyclic
    index windows."""
    def step(p):
        x, y = p[..., 0], p[..., 1]
        return _wrap(np.stack([2 * x + y + 0.05 * np.sin(2 * np.pi * x),
                               x + y], axis=-1))
    return DynSystem(name="skew", dim=2, step=step, metric="toroidal",
                     box=((0.0, 1.0), (0.0, 1.0)))


@settings(max_examples=30)
@given(which=st.sampled_from(["identity", "polynomial", "skew"]),
       ns=st.lists(st.integers(0, 4), min_size=1, max_size=4, unique=True),
       eps=st.one_of(st.floats(0.12, 0.5),
                     st.integers(2, 8).map(lambda k: 1 / k)))
# the benchmark's polynomial job, below the drawn eps range
@example(which="polynomial", ns=[1, 2, 3], eps=1 / 10)
@example(which="skew", ns=[0, 1, 2, 3], eps=1 / 10)
def test_grid_brackets_match_full_grid_greedy(which, ns, eps):
    sys = {"identity": identity_system(), "polynomial": polynomial_system(),
           "skew": _skew_torus()}[which]
    ns = sorted(ns)
    got = list(_brackets(sys, ns, eps, eps / 4.0))
    assert [(b["M_lower"], b["M_upper"]) for b in got] == \
        list(_grid_greedy_oracle(sys, ns, eps, eps / 4.0))
    if sys.metric == "toroidal":      # no torus point twice on the grid
        torus = np.mod(_grid_points(_grid_axes(sys.box, eps / 4.0, False)),
                       1.0)
        assert got[0]["meta"]["grid_points"] == len(np.unique(torus, axis=0))


@settings(max_examples=150)
@given(torus=st.booleans(),
       grid=st.lists(st.lists(st.integers(0, 23), min_size=1, max_size=6,
                              unique=True), min_size=1, max_size=2),
       M=st.integers(1, 24), shift=st.sampled_from([0.0, 0.5, 1.0]),
       later=st.integers(0, 2), m=st.integers(1, 12),
       ks=st.lists(st.integers(0, 12), min_size=144, max_size=144),
       idx=st.integers(0, 35))
# a later step at 1.0 is the torus point 0.0: d(1.0, 0.1) is
# 1 - (1 - 0.1) = 0.09999999999999998, the radius of the ball about point 0
@example(torus=True, grid=[[0, 1]], M=20, shift=0.0, later=1, m=10,
         ks=[10, 1] + [0] * 142, idx=0)
# the gap across the wrap, 1 - (5/6 - 1/6) = 0.33333333333333326, is below
# the wrap spacing 1/6 + 1 - 5/6 = 0.33333333333333337: at the radius of
# that gap, only the rounding pad keeps the one step to point 1 in the window
@example(torus=True, grid=[[1, 5]], M=6, shift=0.0, later=0, m=1,
         ks=[0] * 144, idx=0)
def test_dn_ball_window_matches_full_scan(torus, grid, M, shift, later, m,
                                          ks, idx):
    # product grids with uneven spacing (on a torus, in [0, 1), so the wrap
    # gap can be the least), random later orbit steps on the points k/m,
    # 1.0 included, and every d_n from the centre as a radius, so ties at
    # the window's edge are common
    metric = "toroidal" if torus else "euclidean"
    axes = [np.array(sorted({v % M for v in vs})) / M if torus
            else np.array(sorted(vs)) / M - shift for vs in grid]
    pts = _grid_points(axes)
    N, dim = pts.shape
    rows = np.array([v % (m + 1) for v in ks[:N * later * dim]]) / m
    orbit = np.concatenate([pts[:, None], rows.reshape(N, later, dim)], 1)
    idx %= N
    dn = _rows_dist(metric, orbit[idx], orbit).max(axis=1)
    for r in dn:
        got = _dn_balls(orbit, metric, axes, r)(idx)  # may repeat an index
        assert np.unique(got).tolist() == [i for i in range(N) if dn[i] <= r]


@given(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                 st.integers(-2**60, 2**60).map(float),
                 st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -5e-324,
                                  1.0, -1.0, 0.5, -0.5,
                                  np.nextafter(1.0, 0.0),
                                  -np.nextafter(1.0, 0.0)])))
def test_wrap_has_the_bits_of_np_mod(x):
    x = np.array([x, -x])
    assert _wrap(x).tobytes() == np.mod(x, 1.0).tobytes()


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_sweep_rejects_non_finite_eps(eps):
    # the CLI parses eps as a fraction, so only the API can pass these
    with pytest.raises(PreconditionFailed, match="eps_values"):
        entropy_sweep(doubling_system(), [1, 2], [0.1, eps])


def test_sweep_rejects_a_repeated_n():
    # h divides by n - n_min, which a repeated base row makes 0
    with pytest.raises(PreconditionFailed, match="n_values"):
        entropy_sweep(doubling_system(), [1, 1, 2], [0.1])


@settings(max_examples=60)
@given(a=st.integers(-3, 3), G=st.integers(8, 1 << 16), n=st.integers(0, 20),
       thr=st.floats(0.0, 0.55),
       ks=st.lists(st.integers(0, (1 << 16) - 1), min_size=1, max_size=64))
@example(a=2, G=90, n=3, thr=0.48, ks=[6])   # the last fold wraps past 1/2
@example(a=2, G=4096, n=12, thr=0.0, ks=[0, 4095])
def test_circle_flags_from_the_last_fold_match_the_full_profile(a, G, n, thr,
                                                                ks):
    ks = np.array(ks) % G
    prof = _circle_profile_oracle(a, n, G)
    assert _circle_above(a, n, G, ks, thr).tolist() == \
        (prof[ks] > thr).tolist()


def _toral_flags_oracle(sys, n, eps, J):
    """dn(0, j) > 2*eps for every row j < J, every row stepped n times."""
    lam, vplus, _ = _toral_eigen(sys.linear_matrix)
    p = _wrap(np.outer(np.arange(J, dtype=float) * (eps / (2.0 * lam ** n)),
                       vplus))
    prof = _rows_dist("toroidal", p, np.zeros(2))
    for _ in range(n):
        p = sys.step(p)
        prof = np.maximum(prof, _rows_dist("toroidal", p, np.zeros(2)))
    return prof > 2.0 * eps


@settings(max_examples=30)
@given(eps=st.floats(1 / 64, 1 / 4), n=st.integers(0, 8))
@example(eps=1 / 20, n=6)
@example(eps=1 / 64, n=3)
def test_toral_screen_keeps_every_row_flag(eps, n):
    # rows far from every lattice point are never evaluated; the flags the
    # spacing search reads are still those of every row stepped n times
    sys = toral_system()
    lam = _toral_eigen(sys.linear_matrix)[0]
    n = min(n, int(math.log(300_000 * eps * eps) / math.log(lam)))
    seen = []
    count = entropy._line_separated_count

    def spy(close, J):
        seen.append((close.copy(), J))
        return count(close, J)
    with mock.patch.object(entropy, "_line_separated_count", spy):
        _toral_line_separated(sys, n, eps)
    close, J = seen[0]
    far = np.ones(J, dtype=bool)
    far[close] = False
    assert far.tolist() == _toral_flags_oracle(sys, n, eps, J).tolist()


@given(close=st.lists(st.integers(0, 80), max_size=12, unique=True),
       J=st.integers(1, 90))
@example(close=[1, 2, 3], J=4)            # no far row below J
@example(close=[], J=1)
def test_line_count_from_the_close_rows_matches_the_flag_scan(close, J):
    far = np.ones(J, dtype=bool)
    far[[j for j in close if j < J]] = False
    assert _line_separated_count(np.array(sorted(close), dtype=np.int64),
                                 J) == _separated_count(far, circular=False)


def _settling():
    """Orbits that move for at most four steps, then stay bitwise put."""
    return DynSystem(name="settling", dim=2,
                     step=lambda p: np.minimum(p + 0.25, 1.0),
                     metric="euclidean", box=((0.0, 1.0), (0.0, 1.0)))


@settings(max_examples=30)
@given(which=st.sampled_from(["identity", "polynomial", "skew", "settling"]),
       ns=st.lists(st.integers(0, 6), min_size=1, max_size=4, unique=True),
       eps=st.sampled_from([1 / 4, 1 / 6, 1 / 10]),
       data=st.data())
@example(which="settling", ns=[0, 2, 5, 6], eps=1 / 6, data=_draws([0, 7]))
def test_carried_balls_equal_fresh_window_scans(which, ns, eps, data):
    sys = {"identity": identity_system(), "polynomial": polynomial_system(),
           "skew": _skew_torus(), "settling": _settling()}[which]
    axes = _grid_axes(sys.box, eps / 4.0, sys.metric == "toroidal")
    orbits = [_grid_points(axes)]
    N = len(orbits[0])
    idxs = data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=8))
    memos = {eps + 1e-12: {}, 2.0 * eps: {}}
    for n in sorted(ns):
        while len(orbits) <= n:
            orbits.append(sys.step(orbits[-1]))
        orbit = np.stack(orbits, axis=1)
        for r, memo in memos.items():
            carried = _dn_balls(orbit, sys.metric, axes, r, memo)
            fresh = _dn_balls(orbit, sys.metric, axes, r)
            for idx in idxs:
                assert carried(idx).tolist() == fresh(idx).tolist()
    if which == "settling":      # a step that moves nothing repeats a bracket
        ns = sorted(ns)
        got = list(_brackets(sys, ns, eps, eps / 4.0))
        assert [(b["M_lower"], b["M_upper"]) for b in got] == \
            list(_grid_greedy_oracle(sys, ns, eps, eps / 4.0))
