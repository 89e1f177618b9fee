"""Global numeric knobs, collected in one place so pipelines stay deterministic."""

from dataclasses import dataclass


@dataclass
class Config:
    # verification grids
    grid_points: int = 4096          # per dimension, float verification
    exact_grid_points: int = 4096    # rational-arithmetic verification grid
    grid_points_2d: int = 256        # per dimension for slab charts

    # chart acceptance
    ck_tolerance_exact: float = 1e-9
    ck_tolerance_float: float = 1e-6
    max_extra_splits: int = 3        # refinement cap after the main induction

    # derivative evaluation
    expr_size_cap: int = 200_000     # nodes, symbolic differentiation cap

    # blackbox zero isolation
    bisect_samples_per_unit: int = 4096

    # continuation
    continuation_residual: float = 1e-10
    continuation_step_floor: float = 1e-12

    # analytic parametrization
    a_chart_radii: int = 8           # concentric circles sampled per disk
    a_chart_angles: int = 256

    # approximation
    taylor_degree_cap: int = 64
    patch_samples: int = 1024

    # determinant method
    mk_safety: float = 1.10          # inflate sampled C^k norms by 10%
    mk_samples: int = 512
    enumerate_cap: int = 10**6

    # remez
    remez_c1: float = 0.125          # delta = c1 * rho / 2 proportionality
    lp_tolerance: float = 1e-9

    # entropy
    entropy_invariance_samples: int = 10_000


DEFAULT = Config()
