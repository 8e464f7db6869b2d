"""Finite-dimensional Poisson structures and brackets of gradients.

A Poisson structure here is its structure matrix Pi(z) = ({z_a, z_b}) and the
matrix's coordinate derivatives, both in closed form, and an observable F is
its gradient array dF/dz at the point, so {F, G} = dF . Pi(z) . dG.  Two
charts are provided: the spin-extended chart (q, p, f) of the
Euler-Calogero-Moser system, packed by ``ecm_point``, and the reduced chart
(q, pi), packed by ``goldfish_point``, whose brackets act as Dirac brackets
for the goldfish flow.  On them sit the Jacobi-identity residual, Hamiltonian
flows, the gradients of the Hamiltonians, of the total momentum, of the so(N)
constraint functions G_ij and of the square-root chart (Q, P), the constraint
values themselves, and the brackets of the commuting momentum-linear
integrals B_n = P_n of the geodesic picture.

Note on the reduced chart: the {pi_i, pi_j} structure function carries a
factor 2 (coefficient ``GOLDFISH_COEFFICIENT``).  Re-deriving the bracket from
a canonical chart through the exponential substitution forces the 2, and only
that normalization makes H = P^2/2 generate the goldfish equation.  The
coefficient-1 variant is available as a negative control.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import geometry, symfun
from .errors import GradientUnavailable, NegativeMomentum
from .utils import (
    antisymmetric_from_upper,
    check_antisymmetric,
    finite_vector,
    pairwise_differences,
    upper_indices,
    upper_triangle,
)

#: Verified coefficient of the {pi_i, pi_j} structure function.
GOLDFISH_COEFFICIENT = 2.0


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonStructure:
    """Closed-form structure functions {z_a, z_b} on a chart of n particles.

    ``matrix`` returns the full antisymmetric structure matrix at a point and
    ``matrix_gradient`` its coordinate derivatives d Pi_ab / d z_d, indexed
    [d, a, b]; both are closed forms, so the Jacobi sweeps stay cheap and exact.
    """

    n: int
    matrix: Callable[[np.ndarray], np.ndarray]
    matrix_gradient: Callable[[np.ndarray], np.ndarray]


def _ff_block(f: np.ndarray, rows_i, rows_j, cols_i, cols_j) -> np.ndarray:
    """{f_ij, f_kl} = -1/2 d_jk f_il + 1/2 d_ik f_jl + 1/2 d_jl f_ik - 1/2 d_il f_jk."""
    ia = rows_i[:, None]
    ja = rows_j[:, None]
    ib = cols_i[None, :]
    jb = cols_j[None, :]
    d = lambda x, y: (x == y).astype(float)
    return 0.5 * (
        -d(ja, ib) * f[ia, jb]
        + d(ia, ib) * f[ja, jb]
        + d(ja, jb) * f[ia, ib]
        - d(ia, jb) * f[ja, ib]
    )


def ecm_structure(n: int) -> PoissonStructure:
    """Poisson structure on the chart (q_1..q_n, p_1..p_n, f_{i<j}).

    Non-trivial brackets: {q_i, p_j} = delta_ij and the so(N) relations with
    coefficient 1/2 among the spins f.
    """
    if n < 2:
        raise ValueError("ecm structure needs n >= 2")
    iu, ju = upper_indices(n)
    d = 2 * n + iu.size

    def matrix(point: np.ndarray) -> np.ndarray:
        f = antisymmetric_from_upper(point[2 * n :], n)
        out = np.zeros((d, d))
        out[:n, n : 2 * n] = np.eye(n)
        out[n : 2 * n, :n] = -np.eye(n)
        out[2 * n :, 2 * n :] = _ff_block(f, iu, ju, iu, ju)
        return out

    # the whole structure matrix is linear in the point, so its gradient is a
    # constant tensor assembled from unit evaluations
    zero = matrix(np.zeros(d))
    grad = np.empty((d, d, d))
    for k in range(d):
        unit = np.zeros(d)
        unit[k] = 1.0
        grad[k] = matrix(unit) - zero
    grad.setflags(write=False)
    return PoissonStructure(n, matrix, lambda point, grad=grad: grad)


def goldfish_structure(n: int, coefficient: float = GOLDFISH_COEFFICIENT) -> PoissonStructure:
    """Dirac-type structure on (q_1..q_n, pi_1..pi_n).

    {q_i, q_j} = 0, {q_i, pi_j} = delta_ij pi_i, and
    {pi_i, pi_j} = coefficient * pi_i pi_j / (q_i - q_j) for i != j.
    ``coefficient`` defaults to the verified value 2; pass 1 to reproduce the
    uncorrected variant as a negative control.
    """
    if n < 2:
        raise ValueError("goldfish structure needs n >= 2")
    c = float(coefficient)

    def matrix(point: np.ndarray) -> np.ndarray:
        q = point[:n]
        pi = point[n:]
        gaps = pairwise_differences(q) + np.eye(n)
        pipi = c * np.outer(pi, pi) * (1.0 / gaps - np.eye(n))
        out = np.zeros((2 * n, 2 * n))
        out[:n, n:] = np.diag(pi)
        out[n:, :n] = -np.diag(pi)
        out[n:, n:] = pipi
        return out

    def matrix_gradient(point: np.ndarray) -> np.ndarray:
        q = point[:n]
        pi = point[n:]
        eye = np.eye(n)
        gaps = pairwise_differences(q) + eye
        inv = 1.0 / gaps - eye
        pp = np.outer(pi, pi)
        out = np.zeros((2 * n, 2 * n, 2 * n))
        for k in range(n):
            dpipi = -c * pp * (eye[k][:, None] - eye[k][None, :]) * inv**2
            out[k, n:, n:] = dpipi
            dpipi_pi = c * (eye[k][:, None] * pi[None, :] + eye[k][None, :] * pi[:, None]) * inv
            out[n + k, n:, n:] = dpipi_pi
            dqpi = np.zeros((n, n))
            dqpi[k, k] = 1.0
            out[n + k, :n, n:] = dqpi
            out[n + k, n:, :n] = -dqpi
        return out

    return PoissonStructure(n, matrix, matrix_gradient)


# ---------------------------------------------------------------------------
# chart packing
# ---------------------------------------------------------------------------

def ecm_point(q, p, f) -> np.ndarray:
    """Pack (q, p, f) into an ecm-chart point.

    ``f`` may be a full antisymmetric matrix or a strictly-upper vector in
    row-major order.
    """
    q = np.asarray(q, dtype=float)
    n = q.size
    f = np.asarray(f, dtype=float)
    fu = upper_triangle(check_antisymmetric(f, n)) if f.ndim == 2 else finite_vector(f, n * (n - 1) // 2, "f")
    return np.concatenate([q, finite_vector(p, n, "p"), fu])


def ecm_parts(point, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unpack an ecm-chart point into (q, p, f full matrix)."""
    point = np.asarray(point, dtype=float)
    nf = n * (n - 1) // 2
    return point[:n], point[n : 2 * n], antisymmetric_from_upper(point[2 * n : 2 * n + nf], n)


def goldfish_point(q, pi) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    return np.concatenate([q, finite_vector(pi, q.size, "pi")])


# ---------------------------------------------------------------------------
# brackets, Jacobi, flows
# ---------------------------------------------------------------------------

def _finite(gradient) -> np.ndarray:
    """The gradient as a float array; GradientUnavailable unless every entry is finite."""
    gradient = np.asarray(gradient, dtype=float)
    if not np.all(np.isfinite(gradient)):
        raise GradientUnavailable("the gradient is not finite here")
    return gradient


def bracket_eval(structure: PoissonStructure, grad_f, grad_g, point) -> float:
    """{F, G} = sum_ab dF/dz_a {z_a, z_b} dG/dz_b from the gradients at the point."""
    pi_mat = structure.matrix(np.asarray(point, dtype=float))
    return float(_finite(grad_f) @ pi_mat @ _finite(grad_g))


def jacobi_residual_all(structure: PoissonStructure, point) -> float:
    """max |{z_a, {z_b, z_c}} + cyclic| over all coordinate triples at the point."""
    point = np.asarray(point, dtype=float)
    pi_mat = structure.matrix(point)
    dpi = structure.matrix_gradient(point)
    res = (
        np.einsum("ad,dbc->abc", pi_mat, dpi)
        + np.einsum("bd,dca->abc", pi_mat, dpi)
        + np.einsum("cd,dab->abc", pi_mat, dpi)
    )
    return float(np.abs(res).max())


def hamiltonian_flow(structure: PoissonStructure, grad_h, point) -> np.ndarray:
    """zdot_a = {z_a, H} for every chart coordinate, from the gradient of H at the point."""
    return structure.matrix(np.asarray(point, dtype=float)) @ _finite(grad_h)


# ---------------------------------------------------------------------------
# gradients of the named observables
# ---------------------------------------------------------------------------

def ecm_hamiltonian_gradient(point, n: int) -> np.ndarray:
    """dH on the ecm chart, H = 1/2 sum p^2 + 1/2 sum_{i != j} f_ij^2/(q_i - q_j)^2."""
    q, p, f = ecm_parts(point, n)
    gaps = pairwise_differences(q) + np.eye(n)
    ratios = f**2 / gaps**3
    np.fill_diagonal(ratios, 0.0)
    dq = -2.0 * ratios.sum(axis=1)
    iu, ju = upper_indices(n)
    df = 2.0 * f[iu, ju] / (q[iu] - q[ju]) ** 2
    return np.concatenate([dq, p, df])


def momentum_gradient(point, n: int) -> np.ndarray:
    """dP of the total momentum P = sum of the momentum block (p or pi) on either chart."""
    grad = np.zeros(np.size(point))
    grad[n : 2 * n] = 1.0
    return grad


def goldfish_hamiltonian_gradient(point, n: int) -> np.ndarray:
    """dH on the reduced chart, H = 1/2 (sum pi)^2."""
    point = np.asarray(point, dtype=float)
    grad = np.zeros(point.size)
    grad[n : 2 * n] = np.sum(point[n : 2 * n])
    return grad


def g_constraint_gradient(point, n: int, i: int, j: int) -> np.ndarray:
    """dG_ij on the ecm chart, G_ij = 2 (f_ij + (q_i - q_j) sqrt(p_i p_j)), 0 <= i < j < n.

    Raises GradientUnavailable unless p_i, p_j > 0.
    """
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    point = np.asarray(point, dtype=float)
    q, p = point[:n], point[n : 2 * n]
    if p[i] <= 0 or p[j] <= 0:
        raise GradientUnavailable("G_ij gradient needs p_i, p_j > 0")
    root = np.sqrt(p[i] * p[j])
    grad = np.zeros(point.size)
    grad[i] = 2.0 * root
    grad[j] = -2.0 * root
    grad[n + i] = (q[i] - q[j]) * np.sqrt(p[j] / p[i])
    grad[n + j] = (q[i] - q[j]) * np.sqrt(p[i] / p[j])
    # f_ij is entry i n - i (i + 1) / 2 + j - i - 1 of the row-major upper triangle
    grad[2 * n + i * n - i * (i + 1) // 2 + j - i - 1] = 2.0
    return grad


def reduced_chart_gradients(point, n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(dQ_k, dP_k) on the ecm chart, Q_k = 2 q_k sqrt(p_k) and P_k = sqrt(p_k) (0-based k).

    Raises GradientUnavailable unless p_k > 0.
    """
    point = np.asarray(point, dtype=float)
    if point[n + k] <= 0:
        raise GradientUnavailable("Q_k, P_k gradients need p_k > 0")
    root = np.sqrt(point[n + k])
    dq = np.zeros(point.size)
    dq[k] = 2.0 * root
    dq[n + k] = point[k] / root
    dp = np.zeros(point.size)
    dp[n + k] = 0.5 / root
    return dq, dp


# ---------------------------------------------------------------------------
# constraints and commuting integrals
# ---------------------------------------------------------------------------

def g_constraints(q, p, f) -> np.ndarray:
    """Constraint values G_ij = 2 (f_ij + (q_i - q_j) sqrt(p_i p_j)), antisymmetric.

    Raises NegativeMomentum when any p_i < 0.
    """
    q = symfun.as_configuration(q)
    n = q.size
    p = finite_vector(p, n, "p")
    if np.any(p < 0):
        raise NegativeMomentum("constraints need p_i >= 0")
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        f = antisymmetric_from_upper(f, n)
    return 2.0 * (f + pairwise_differences(q) * np.sqrt(np.outer(p, p)))


def commutation_matrix(q, pi) -> np.ndarray:
    """{B_m, B_n} under canonical {q_i, pi_j} = delta_ij, from analytic derivatives.

    Entry [m - 1, n - 1] belongs to the 1-based integral labels m, n; every
    entry should vanish.  With B = J g^{-1} pi, dB/dpi = (J g^{-1})^T and
    dB/dq_k = (d_k J) g^{-1} pi + J (d_k g^{-1}) pi, so with a = dB/dq^T dB/dpi
    the matrix is a - a^T, exactly antisymmetric.
    """
    q = symfun.as_configuration(q)
    pi = finite_vector(pi, q.size, "pi")
    jac = symfun.jacobian(q)
    ginv = geometry.inverse_metric(q)
    dp = (jac @ ginv).T  # [k, m] = d B_m / d pi_k
    dginv_pi = geometry.inverse_metric_gradient(q) @ pi
    dq = symfun.jacobian_derivative(q) @ (ginv @ pi) + dginv_pi @ jac.T  # [k, m] = d B_m / d q_k
    a = dq.T @ dp
    return a - a.T
