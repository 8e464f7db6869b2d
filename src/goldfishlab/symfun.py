"""Elementary-symmetric-function coordinates and polynomial root recovery.

The map q -> x built from the elementary symmetric polynomials straightens the
goldfish flow into free motion.  This module holds the coordinate map, its
Jacobian and inverse Jacobian in closed form, the Vandermonde determinant, and
the inverse map obtained as companion-matrix roots.

All position vectors are "configurations": strictly increasing, pairwise
separated by more than a collision tolerance.  Solver outputs are always
sorted ascending so results are comparable across solvers.
"""
from __future__ import annotations

import numpy as np

from .errors import ComplexRoots, RootCollision
from .utils import finite_vector, pairwise_differences, upper_indices

#: Absolute gap at or below which two positions count as collided.
COLLISION_TOL = 1e-8

#: Largest imaginary part of a recovered root or eigenvalue still read as real.
IMAG_TOL = 1e-9


def as_configuration(q) -> np.ndarray:
    """Validate q as an ordered configuration and return it as a float array.

    Requires N >= 1, strictly increasing entries and a minimal adjacent gap
    above ``COLLISION_TOL``.
    """
    q = finite_vector(q, name="q")
    if q.size < 1:
        raise ValueError("configuration needs at least one particle")
    if q.size > 1:
        smallest = (q[1:] - q[:-1]).min()
        if smallest <= 0:
            raise ValueError("positions must be strictly increasing")
        if smallest <= COLLISION_TOL:
            raise ValueError(
                f"minimal gap {smallest:.3e} at or below collision tolerance {COLLISION_TOL:.3e}"
            )
    return q


def flat_line(values: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, b): x_n = e_n(values) and b_n = sum_j rates_j dx_n/dvalues_j, n = 1..N.

    For (q, qdot) the goldfish flow is the line x(0) + t b.  One pass of the
    recurrence e_{1..i+1} += v_i e_{0..i} over the last axis, differentiated
    in forward mode, gives both in O(N^2), where J(q) qdot costs O(N^3).
    Leading axes are rows; nothing is validated.  Arrays are allocated in the
    inputs' dtype with no float literal, so Fraction object arrays stay exact.
    """
    # transposed, entry i holds v_i of every row, broadcast over e_0..e_i
    values, rates = values.T, rates.T
    e = np.zeros((values.shape[0] + 1,) + values.shape[1:], np.result_type(values, rates))
    e[0] = 1
    d = np.zeros_like(e)
    for i, (v, r) in enumerate(zip(values, rates)):
        d[1 : i + 2] += v * d[: i + 1] + r * e[: i + 1]
        e[1 : i + 2] += v * e[: i + 1]
    return e[1:].T, d[1:].T


def elem_sym_coords(q) -> np.ndarray:
    """Flat coordinates x_n = e_n(q), n = 1..N."""
    q = as_configuration(q)
    return flat_line(q, np.zeros_like(q))[0]


def jacobian(q) -> np.ndarray:
    """J[n, j] = d x_n / d q_j = e_{n-1} of q with entry j removed."""
    return jacobian_stack(as_configuration(q)[None, :])[0]


def jacobian_stack(qs: np.ndarray) -> np.ndarray:
    """``jacobian`` of each row of qs (rows, N), shape (rows, N, N); rows not validated.

    Column j is the recurrence of ``flat_line``'s x run over q without q_j.
    All columns of all rows are advanced together in one pass over the N
    positions: step i applies J[1:] = J[1:] + q_i J[:-1] and then restores
    column i, which must skip q_i.  Before step i a column holds e_0..e_i at
    most, so the step touches rows 1..i+1 only; the rows below stay zero, as
    they would in the full update.  That is O(N) numpy calls and O(N^3) flops
    per row, and every entry receives the same IEEE operations in the same
    order as in the per-column definition, so the result is bit-identical to
    it whatever the number of rows.  Fraction rows (object dtype) stay exact.
    """
    rows, n = qs.shape
    jac = np.zeros((rows, n, n), qs.dtype)
    jac[:, 0] = 1
    for i in range(n):
        m = min(i + 2, n)
        skipped = jac[:, 1:m, i].copy()
        jac[:, 1:m] += qs[:, i, None, None] * jac[:, : m - 1]
        jac[:, 1:m, i] = skipped
    return jac


def jacobian_derivative(q) -> np.ndarray:
    """dJ[r, j] / dq_k, indexed [k, r, j]: e_{r-1} of q without q_j and q_k.

    Zero where k = j or r = 0.  Column j of J is e_0..e_{N-1} of q without
    q_j, so its derivative in q_k is that leave-one-out row's Jacobian
    column for q_k, one row down: one ``jacobian_stack`` call on the N
    leave-one-out rows gives every entry.
    """
    q = as_configuration(q)
    n = q.size
    out = np.zeros((n, n, n))
    if n > 1:
        others = ~np.eye(n, dtype=bool)
        sub = jacobian_stack(np.broadcast_to(q, (n, n))[others].reshape(n, n - 1))
        cols, ks = np.nonzero(others)  # row j of sub drops q_j; its entry i is q_k
        out[ks, 1:, cols] = sub.transpose(0, 2, 1).reshape(n * (n - 1), n - 1)
    return out


def jacobian_det(q) -> float:
    """det J = prod_{i<j} (q_i - q_j), evaluated from the product formula."""
    q = as_configuration(q)
    diffs = pairwise_differences(q)
    return float(np.prod(diffs[upper_indices(q.size)]))


def vandermonde_factors(q: np.ndarray) -> np.ndarray:
    """D_i = prod_{k != i} (q_i - q_k) of an unvalidated 1-d array, in q's dtype."""
    return np.prod(pairwise_differences(q) + np.eye(q.size, dtype=q.dtype), axis=1)


def jacobian_inverse(q) -> np.ndarray:
    """Closed-form inverse: (J^-1)[i, m] = (-1)^(m-1) q_i^(N-m) / D_i, with m = 1..N."""
    return jacobian_inverse_unchecked(as_configuration(q))


def jacobian_inverse_unchecked(q: np.ndarray) -> np.ndarray:
    """``jacobian_inverse`` of an unvalidated 1-d array in its dtype: exact on Fractions."""
    n = q.size
    powers = q[:, None] ** np.arange(n - 1, -1, -1)[None, :]
    signs = (-1) ** np.arange(n)
    return signs[None, :] * powers / vandermonde_factors(q)[:, None]


def roots_from_coords(x) -> np.ndarray:
    """Recover positions as the roots of the monic polynomial with Vieta data x.

    The polynomial is lambda^N - x_1 lambda^(N-1) + ... + (-1)^N x_N; roots are
    computed as companion-matrix eigenvalues and returned sorted ascending.

    Raises ComplexRoots when any |Im root| >= ``IMAG_TOL``, RootCollision when
    two real roots are closer than ``COLLISION_TOL``.
    """
    x = finite_vector(x, name="x")
    n = x.size
    coeffs = np.concatenate(([1.0], ((-1.0) ** np.arange(1, n + 1)) * x))
    roots = np.roots(coeffs)
    worst_imag = float(np.abs(roots.imag).max()) if n else 0.0
    if worst_imag >= IMAG_TOL:
        raise ComplexRoots(f"imaginary part {worst_imag:.3e} >= tol {IMAG_TOL:.3e}")
    real = np.sort(roots.real)
    if n > 1 and np.diff(real).min() < COLLISION_TOL:
        raise RootCollision(
            f"root gap {np.diff(real).min():.3e} below collision tolerance {COLLISION_TOL:.3e}"
        )
    return real
