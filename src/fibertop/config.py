"""Run configuration shared by the CLI and the sweep drivers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction

DEFAULT_MAX_POINTS = 12
ENV_MAX_POINTS = "FIBERTOP_MAX_POINTS"


def _env_cap() -> int:
    raw = os.environ.get(ENV_MAX_POINTS)
    return int(raw) if raw else DEFAULT_MAX_POINTS


@dataclass
class RunConfig:
    depth: int = 6
    tolerance: Fraction = Fraction(1, 1024)
    max_points: int = field(default_factory=_env_cap)
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if not isinstance(self.tolerance, Fraction):
            self.tolerance = Fraction(self.tolerance)
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
