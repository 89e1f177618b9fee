"""smoothparam: executable parametrization, point counting, norming, and
entropy pipelines for algebraic curves and smooth maps."""

from .analytic_param import (AnalyticParametrization, analytic_delta_parametrize,
                             dyadic_partition, hyperbola_analytic_charts)
from .approx import (Approximation, ApproxPatch, analytic_approximate,
                     ck_approximate, compare_log_cubic_vs_power,
                     taylor_polynomial)
from .bivar import BivarPoly, BivarRational, resultant_y
from .bp import (bp_combinatorics, bp_for_degree, brute_force_points,
                 enumerate_points, hypersurface_cover, on_hypersurface,
                 vandermonde_bound_check)
from .charts import (CertificateReport, Chart, measure_chart_bounds,
                     verify_ck_chart)
from .ck_param import (CkParametrization, ck_parametrize_function,
                       ck_parametrize_slab, hyperbola_parametrization,
                       kill_derivative_step, monotone_subdivision)
from .entropy import (DynSystem, EntropyReport, covering_number, entropy_sweep,
                      system_zoo)
from .funcs import (AddExpr, BlackboxExpr, BranchExpr, ComposeExpr,
                    FunctionExpr, MulExpr, PowExpr, RationalExpr, SqrtExpr,
                    hyperbola_branch, singular_locus)
from .poly import Poly, max_abs_on_rational_grid, max_abs_ratio_on_grid
from .remez import (classical_remez_bound, curve_gradient_floor,
                    empirical_remez_constant, hyperbola_curve,
                    hyperbola_remez_query, remez_parametrization)
from .serialize import dumps, loads, verify_bundle

__version__ = "0.1.0"
