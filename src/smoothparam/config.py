"""The sampling grids that callers vary: test configurations shrink them, and
`verify` re-checks artifacts on every grid but a_chart_radii, the circle
count, made `serialize.VERIFY_FACTOR` times finer (`serialize._scale_cfg`).
Every other numeric setting is a constant beside the code that reads it."""

from dataclasses import dataclass


@dataclass
class Config:
    grid_points: int = 4096          # float verification grid
    exact_grid_points: int = 4096    # rational-arithmetic verification grid
    a_chart_radii: int = 8           # concentric circles sampled per disk
    a_chart_angles: int = 256        # points per circle


DEFAULT = Config()
