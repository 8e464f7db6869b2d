"""Small shared helpers: vector validation, antisymmetric packing, frames."""
from __future__ import annotations

from functools import lru_cache

import numpy as np


def finite_vector(v, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Return ``v`` as a 1-d float array, checking finiteness and length."""
    v = np.asarray(v, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)  # what np.atleast_1d does, without its call overhead
    elif v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"{name} must have length {n}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


@lru_cache(maxsize=None)
def upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per n; the arrays are read-only
    because every caller shares them."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def upper_triangle(f: np.ndarray) -> np.ndarray:
    """Strictly-upper entries of ``f`` in row-major order (1,2),(1,3),...,(2,3),..."""
    f = np.asarray(f, dtype=float)
    return f[upper_indices(f.shape[0])]


def antisymmetric_from_upper(fu, n: int) -> np.ndarray:
    """Expand a strictly-upper vector (row-major) into an antisymmetric matrix."""
    fu = finite_vector(fu, n * (n - 1) // 2, "upper-triangle vector")
    f = np.zeros((n, n))
    f[upper_indices(n)] = fu
    return f - f.T


def check_antisymmetric(f, n: int | None = None, name: str = "f") -> np.ndarray:
    """Validate exact antisymmetry and return the matrix as floats."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError(f"{name} must be square, got shape {f.shape}")
    if n is not None and f.shape[0] != n:
        raise ValueError(f"{name} must be {n}x{n}, got {f.shape}")
    if not np.array_equal(f, -f.T):
        raise ValueError(f"{name} must be exactly antisymmetric")
    return f


def pairwise_differences(q: np.ndarray) -> np.ndarray:
    """Matrix of gaps q_i - q_j."""
    return q[:, None] - q[None, :]


def polar_orthonormalize(r: np.ndarray) -> np.ndarray:
    """Nearest orthogonal matrix to ``r`` (polar factor, via SVD)."""
    u, _, vt = np.linalg.svd(r)
    return u @ vt


def orthogonality_defect(r: np.ndarray) -> float:
    """Frobenius norm of R^T R - I."""
    n = r.shape[0]
    return float(np.linalg.norm(r.T @ r - np.eye(n)))
