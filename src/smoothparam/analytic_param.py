"""Analytic delta-parametrization: remove a small interval about the real
part of each singular point within delta of the real axis, cover the rest
by a dyadic partition whose intervals stay three half-lengths away from
every singularity, and certify an affine analytic chart per kept interval.

The distance invariant is stated against the half-length: the affine chart
t in [-1, 1] -> c + (L/2) t maps the radius-3 disk onto the disk of radius
3L/2 about the interval center, so 'three half-lengths' is exactly what keeps
that disk free of singularities.  (Measuring against the full length instead
provably breaks the logarithmic interval-count budget: the growth ratio drops
below 2 and the doubling count overshoots.)"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .charts import Chart, circle_sup
from .errors import DeltaTooLarge, PreconditionFailed, SingularityInsideDisk
from .funcs import (BranchExpr, FunctionExpr, RationalExpr, _wrap,
                    normalize_values)
from .poly import Poly, _fr, complex_roots


@dataclass
class DyadicPartition:
    removed: list                      # list of (lo, hi) open intervals
    kept: list                         # list of (lo, hi)
    delta: Fraction
    singular_points: list              # complex

    def check_invariants(self):
        """(worst distance ratio, count, budget).  Ratio >= 3 means every kept
        interval is at least three half-lengths from every singularity.  The
        budget 2(m + 1) log2(1/delta) on the count holds for delta <= 1/4
        only: on [-1, 1], one singular point at 0.5i with delta 1/2 takes 6
        charts against a budget of 4."""
        worst = math.inf
        for (a, b) in self.kept:
            c, half = float((a + b) / 2), float((b - a) / 2)
            for z in self.singular_points:
                worst = min(worst, abs(complex(z) - c) / half)
        m = len(self.singular_points)
        budget = 2 * (m + 1) * math.log2(1 / float(self.delta))
        return worst, len(self.kept), budget


def _max_feasible_length(q: Fraction, direction: int, singular_points,
                         limit: Fraction) -> Fraction:
    """Largest L <= limit so the interval of length L starting at q (going
    right if direction=+1, left if -1) has |center - z| >= 3L/2 for all z.

    |center - z| - 3L/2 is decreasing in L, so each constraint has a closed
    form (quadratic for complex z)."""
    best = limit
    for z in singular_points:
        zr, zi = float(z.real), float(z.imag)
        # center = q + direction * L/2; require (c - zr)^2 + zi^2 >= 9L^2/4
        # substitute u = direction*(zr - q): (L/2 - u)^2 + zi^2 >= 9L^2/4
        # -> 2L^2 + uL - (u^2 + zi^2) <= 0 -> L <= (-u + sqrt(9u^2 + 8 zi^2))/4
        u = direction * (zr - float(q))
        cap = (-u + math.sqrt(9 * u * u + 8 * zi * zi)) / 4 * (1 - 1e-9)
        if cap <= 0:
            return Fraction(0)
        if cap < float(best):
            # the float itself: a dyadic rational below the true cap, so the
            # cover's ends keep the gap ends' denominators times a power of 2
            best = Fraction(cap)
            # round down so the invariant holds with margin
            while not _feasible(q, direction, best, z):
                best = best * Fraction(4095, 4096)
    return best


def _feasible(q, direction, L, z) -> bool:
    c = float(q) + direction * float(L) / 2
    return abs(complex(z) - c) >= 3 * float(L) / 2


def dyadic_partition(interval, singular_points, delta) -> DyadicPartition:
    """Remove the open 2*delta-interval about Re z for each singular point z
    with |Im z| < delta (one farther off the axis only bounds the lengths
    of the intervals near it), then cover each remaining gap greedily from
    both ends toward its midpoint with the largest intervals the
    three-half-lengths invariant allows (the last interval on each side
    truncated at the midpoint)."""
    lo, hi = _fr(interval[0]), _fr(interval[1])
    delta = _fr(delta)
    if not 0 < delta < 1:
        raise PreconditionFailed(f"delta must lie in (0, 1), got {delta}")
    sings = [complex(z) for z in singular_points]
    raw = []
    for z in sings:
        if abs(z.imag) >= delta:
            continue
        x = Fraction(z.real).limit_denominator(2**60)
        a, b = x - delta, x + delta
        if b > lo and a < hi:
            raw.append((max(a, lo), min(b, hi)))
    # merge overlapping removals
    raw.sort()
    removed = []
    for a, b in raw:
        if removed and a <= removed[-1][1]:
            removed[-1] = (removed[-1][0], max(removed[-1][1], b))
        else:
            removed.append((a, b))
    gaps, cur = [], lo
    for a, b in removed:
        if a > cur:
            gaps.append((cur, a))
        cur = max(cur, b)
    if cur < hi:
        gaps.append((cur, hi))

    kept = []
    for A, B in gaps:
        mid = (A + B) / 2
        q = A
        while q < mid:
            L = _max_feasible_length(q, +1, sings, mid - q)
            if L <= 0:
                raise DeltaTooLarge(f"cannot advance cover at {float(q)}")
            kept.append((q, q + L))
            q = q + L
        q = B
        while q > mid:
            L = _max_feasible_length(q, -1, sings, q - mid)
            if L <= 0:
                raise DeltaTooLarge(f"cannot advance cover at {float(q)}")
            kept.append((q - L, q))
            q = q - L
    kept.sort()
    return DyadicPartition(removed, kept, delta, sings)


@dataclass
class AnalyticParametrization:
    charts: list
    removed: list
    delta: Fraction
    domain: tuple
    normalization: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def chart_count(self):
        return len(self.charts)


def _detect_singularities(f: FunctionExpr, declared=None):
    if declared is not None:
        return [complex(z) for z in declared]
    rat = f.as_rational()
    if rat is not None:
        _, den = rat
        if den.degree <= 0:
            return []
        return [z for z, _ in complex_roots(den)]
    if isinstance(f, BranchExpr):
        return [complex(z) for z in f.tracker.singularities]
    raise PreconditionFailed(
        "singularities must be declared for opaque functions")


def _a_chart_for_interval(f, a, b, declared_sings):
    """Affine chart on [a, b] with its disk bound measured at two half-lengths
    (comfortably inside the singularity-free three-half-length disk)."""
    a, b = _fr(a), _fr(b)
    c = (a + b) / 2
    half = (b - a) / 2
    psi = Poly.affine(half, c)          # t in [-1,1] -> [a, b]
    center, radius = complex(float(c)), 2 * float(half)
    for z in declared_sings:
        if abs(complex(z) - center) < 3 * float(half) * (1 - 1e-12):
            raise SingularityInsideDisk(
                f"singularity {z} inside the protected disk of [{a},{b}]")
    K = circle_sup(f.eval_array, center, radius)
    base = abs(f.eval_complex(center))
    fc = f.precompose_poly(psi)
    ch = Chart(psi=psi, f_comp=fc, k=0, image=(a, b),
               meta={"kind": "a-chart", "K": K, "Kvar": K + base,
                     "disk_center": center, "disk_radius": radius})
    return ch


def verify_a_chart_variation(ch: Chart, factor: int = 1):
    """max |f(psi(z)) - f(psi(0))| on concentric circles of radius 2 in chart
    coordinates, `factor` times as many angles as `circle_sup` takes: the
    disk of two half-lengths that `_a_chart_for_interval` measures K on."""
    f0 = ch.f_comp.eval_complex(0j)
    return circle_sup(lambda zs: ch.f_comp.eval_array(zs) - f0, 0j, 2.0,
                      factor)


def analytic_delta_parametrize(f: FunctionExpr, delta, interval,
                               declared_singularities=None,
                               normalize=True) -> AnalyticParametrization:
    f = _wrap(f)
    lo, hi = _fr(interval[0]), _fr(interval[1])
    if not lo < hi:
        raise PreconditionFailed(f"interval must have lo < hi, got [{lo}, {hi}]")
    sings = _detect_singularities(f, declared_singularities)
    norm = {}
    if normalize:
        f, norm = normalize_values(f, lo, hi)

    part = dyadic_partition((lo, hi), sings, delta)
    charts = [_a_chart_for_interval(f, a, b, sings) for a, b in part.kept]
    return AnalyticParametrization(charts=charts, removed=part.removed,
                                   delta=_fr(delta), domain=(lo, hi),
                                   normalization=norm)


def hyperbola_analytic_charts(eps, delta):
    """a-charts for g(x) = -eps^2/x on [-1, -eps] (singularity at x = 0)."""
    e = _fr(eps)
    if not 0 < e < 1:
        raise PreconditionFailed(f"eps must be in (0, 1), got {eps}")
    g = RationalExpr(Poly([-e * e]), Poly([0, 1]))
    return analytic_delta_parametrize(g, delta, (-1, -e),
                                      declared_singularities=[0j],
                                      normalize=False)
