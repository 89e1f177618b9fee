"""The sampling grids that callers vary: `verify` re-checks artifacts at 4x
these resolutions, and cheap test configurations shrink them.  Every other
numeric setting is a constant beside the code that reads it."""

from dataclasses import dataclass


@dataclass
class Config:
    grid_points: int = 4096          # per dimension, float verification
    exact_grid_points: int = 4096    # rational-arithmetic verification grid
    grid_points_2d: int = 256        # per dimension for slab charts
    a_chart_radii: int = 8           # concentric circles sampled per disk
    a_chart_angles: int = 256        # points per circle
    patch_samples: int = 1024        # approximation patch error samples


DEFAULT = Config()
