"""
Parametrizing the hyperbola branch g(x) = -eps^2/x
==================================================

The branch on [-1, -eps] blows up in C^2 norm as eps -> 0, yet a fixed
number of degree-4 charts always suffices: the square substitution
h(t) = t^2 kills the derivative growth near the asymptote.
"""

from fractions import Fraction as F

from smoothparam import (hyperbola_parametrization, verify_ck_chart,
                         hyperbola_analytic_charts)

# -- the golden example: eps = 1/100, k = 2 -----------------------------------

P = hyperbola_parametrization(F(1, 100), k=2)
print(f"eps = 1/100, k = 2  ->  {P.chart_count} charts")
for i, ch in enumerate(P.charts):
    rep = verify_ck_chart(ch)   # rational chart: exact rational grid, no floats
    a, b = ch.image
    print(f"  chart {i}: image [{a}, {b}], degree {ch.psi.degree}, "
          f"max bound {rep.max_bound:.6f}, ok={rep.ok}")

# -- uniformity: the count never depends on eps -------------------------------

print("\nchart count per eps (must be constant):")
for j in range(1, 7):
    Pj = hyperbola_parametrization(F(1, 10 ** j), k=2)
    degs = sorted({c.psi.degree for c in Pj.charts})
    print(f"  eps = 1e-{j}: {Pj.chart_count} charts, degrees {degs}")

# -- the analytic route: chart count grows like log(1/delta) ------------------

print("\nanalytic a-charts for eps = 2^-26 (count ~ affine in log2(1/delta)):")
for j in (4, 8, 12, 16, 20):
    A = hyperbola_analytic_charts(F(1, 2 ** 26), F(1, 2 ** j))
    print(f"  delta = 2^-{j:<2d}: {A.chart_count} charts, "
          f"{len(A.removed)} removed interval(s)")
