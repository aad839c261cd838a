"""Run configuration shared by the CLI and the sweep drivers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_MAX_POINTS = 12
# level n of a partition family has 2^n blocks
MAX_DEPTH = 16
ENV_MAX_POINTS = "FIBERTOP_MAX_POINTS"


def _env_cap() -> int:
    raw = os.environ.get(ENV_MAX_POINTS)
    if not raw:
        return DEFAULT_MAX_POINTS
    try:
        cap = int(raw)
        if cap < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"{ENV_MAX_POINTS} must be a positive integer, "
                         f"got {raw!r}") from None
    return cap


@dataclass
class RunConfig:
    depth: int = 6
    tolerance: Fraction = Fraction(1, 1024)
    max_points: int = field(default_factory=_env_cap)
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth must be between 1 and {MAX_DEPTH}, "
                             f"got {self.depth}")
        if not isinstance(self.tolerance, Fraction):
            self.tolerance = Fraction(self.tolerance)
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_points < 1:
            raise ValueError(f"the point cap (--max-points) must be a positive "
                             f"integer, got {self.max_points}")
