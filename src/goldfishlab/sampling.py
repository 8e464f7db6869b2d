"""Seeded random draws shared by the verification suites and tests.

Conventions: positions are sorted uniforms on [-2, 2] with a minimal gap of
0.1; velocities and momenta are uniform on [0.5, 1.5]; spin entries uniform
on [-1, 1].  A fixed generator therefore fixes every draw, which keeps
verification reports byte-reproducible.

Positions are drawn directly, by the spacing transform of uniform order
statistics (Devroye, *Non-Uniform Random Variate Generation*, Springer 1986,
ch. V): sorted uniforms y on [0, slack), slack = high - low - (n - 1) min_gap,
map to low + y_k + k min_gap.  The map is a bijection with unit Jacobian onto
the sorted configurations in [low, high) whose gaps are all >= min_gap, so
the draw is uniform on them, as a rejection loop's would be, at one draw of
n uniforms whatever n and min_gap.
"""
from __future__ import annotations

import numpy as np


def random_configuration(
    rng: np.random.Generator,
    n: int,
    low: float = -2.0,
    high: float = 2.0,
    min_gap: float = 0.1,
) -> np.ndarray:
    """Sorted uniforms on [low, high) with every adjacent gap >= ``min_gap``.

    Uniform on those configurations, up to the one rounding of each sum
    (a gap can fall a few ulps of the coordinates short); ValueError if none
    has room, that is if (n - 1) min_gap >= high - low.
    """
    slack = high - low - (n - 1) * min_gap
    if slack <= 0:
        raise ValueError(f"no room for {n} positions with gap >= {min_gap} in [{low}, {high})")
    y = np.sort(rng.uniform(0.0, slack, n))
    return low + y + min_gap * np.arange(n)


def random_velocities(rng: np.random.Generator, n: int, low: float = 0.5, high: float = 1.5) -> np.ndarray:
    return rng.uniform(low, high, n)


def random_spin_upper(rng: np.random.Generator, n: int, bound: float = 1.0) -> np.ndarray:
    return rng.uniform(-bound, bound, n * (n - 1) // 2)
