"""Seeded random draws shared by the verification suites and tests.

Conventions: positions are sorted uniforms on [-2, 2] with a minimal gap of
0.1 enforced by resampling; velocities and momenta are uniform on [0.5, 1.5];
spin entries uniform on [-1, 1].  A fixed generator therefore fixes every
draw, which keeps verification reports byte-reproducible.

Rejection sampling tests candidates in blocks of rows once the first one is
rejected, and then rewinds the generator and redraws exactly the candidates
up to the accepted one: the position vector and the generator's later state
are those of drawing one candidate at a time.
"""
from __future__ import annotations

import numpy as np


def random_configuration(
    rng: np.random.Generator,
    n: int,
    low: float = -2.0,
    high: float = 2.0,
    min_gap: float = 0.1,
    max_tries: int = 10_000,
) -> np.ndarray:
    """Sorted uniforms on [low, high) with every adjacent gap >= ``min_gap``.

    Draws up to ``max_tries`` candidates of n positions.  The first is
    tested alone, since at the default gap most are accepted; then blocks of
    8, 32, 128, ... candidates are drawn at once.  ``uniform`` fills a block
    row by row from the same stream, so its row k is the k-th candidate of
    the one-at-a-time loop.
    """
    if max_tries >= 1:
        q = np.sort(rng.uniform(low, high, n))
        if n < 2 or (q[1:] - q[:-1]).min() >= min_gap:
            return q
    tries, block = 1, 8
    while tries < max_tries:
        block = min(block, max_tries - tries)
        state = rng.bit_generator.state
        q = np.sort(rng.uniform(low, high, (block, n)), axis=1)
        accepted = np.flatnonzero((q[:, 1:] - q[:, :-1]).min(axis=1) >= min_gap)
        if accepted.size:
            # leave the generator where the one-at-a-time loop stops
            k = int(accepted[0])
            rng.bit_generator.state = state
            rng.uniform(low, high, (k + 1) * n)
            return q[k]
        tries += block
        block *= 4
    raise RuntimeError(f"could not draw {n} positions with gap >= {min_gap}")


def random_velocities(rng: np.random.Generator, n: int, low: float = 0.5, high: float = 1.5) -> np.ndarray:
    return rng.uniform(low, high, n)


def random_spin_upper(rng: np.random.Generator, n: int, bound: float = 1.0) -> np.ndarray:
    return rng.uniform(-bound, bound, n * (n - 1) // 2)
