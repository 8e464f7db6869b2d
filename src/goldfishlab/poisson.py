"""Finite-dimensional Poisson structures and bracket machinery.

Two charts are provided as data: the spin-extended chart (q, p, f) of the
Euler-Calogero-Moser system and the reduced chart (q, pi) whose brackets act
as Dirac brackets for the goldfish flow.  On top of them sit generic bracket
evaluation for observables, Jacobi-identity residuals, Hamiltonian flows, the
so(N) constraint functions G_ij, and the brackets of the commuting
momentum-linear integrals B_n = P_n of the geodesic picture.

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
from .errors import GradientUnavailable, NegativeMomentum, NonPositiveMomentum
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
# observables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseObservable:
    """Scalar function on a chart with its analytic gradient."""

    evaluate: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    name: str = ""

    def value(self, point: np.ndarray) -> float:
        return float(self.evaluate(np.asarray(point, dtype=float)))

    def gradient_at(self, point: np.ndarray) -> np.ndarray:
        """The gradient at the point; GradientUnavailable unless finite and of the point's shape."""
        point = np.asarray(point, dtype=float)
        grad = np.asarray(self.gradient(point), dtype=float)
        if grad.shape != point.shape or not np.all(np.isfinite(grad)):
            raise GradientUnavailable(
                f"observable {self.name or '<unnamed>'} has no finite gradient here"
            )
        return grad


# ---------------------------------------------------------------------------
# structures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoissonStructure:
    """A chart plus closed-form structure functions {z_a, z_b}.

    ``matrix`` returns the full antisymmetric structure matrix at a point and
    ``matrix_gradient`` its coordinate derivatives, indexed [d, a, b]; both are
    closed forms, so the Jacobi sweeps stay cheap and exact.
    """

    chart: tuple[str, ...]
    matrix: Callable[[np.ndarray], np.ndarray]
    matrix_gradient: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    n: int = 0

    @property
    def dim(self) -> int:
        return len(self.chart)

    def index(self, coordinate: str) -> int:
        return self.chart.index(coordinate)

    def structure_matrix(self, point: np.ndarray) -> np.ndarray:
        return self.matrix(np.asarray(point, dtype=float))

    def structure_gradient(self, point: np.ndarray) -> np.ndarray:
        """d Pi_ab / d z_d as an array [d, a, b]."""
        return self.matrix_gradient(np.asarray(point, dtype=float))

    def bracket(self, a: int, b: int, point: np.ndarray) -> float:
        """The single structure function {z_a, z_b} at the point."""
        return float(self.structure_matrix(point)[a, b])

    def coordinate_observable(self, a: int | str) -> PhaseObservable:
        if isinstance(a, str):
            a = self.index(a)
        unit = np.zeros(self.dim)
        unit[a] = 1.0
        return PhaseObservable(
            evaluate=lambda z, a=a: z[a],
            gradient=lambda z, unit=unit: unit,
            name=self.chart[a],
        )


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
    chart = (
        [f"q{i + 1}" for i in range(n)]
        + [f"p{i + 1}" for i in range(n)]
        + [f"f_{i + 1}_{j + 1}" for i, j in zip(iu, ju)]
    )
    d = len(chart)

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

    return PoissonStructure(
        chart=tuple(chart),
        matrix=matrix,
        matrix_gradient=lambda point, grad=grad: grad,
        name="ecm",
        n=n,
    )


def goldfish_structure(n: int, coefficient: float = GOLDFISH_COEFFICIENT) -> PoissonStructure:
    """Dirac-type structure on (q_1..q_n, pi_1..pi_n).

    {q_i, q_j} = 0, {q_i, pi_j} = delta_ij pi_i, and
    {pi_i, pi_j} = coefficient * pi_i pi_j / (q_i - q_j) for i != j.
    ``coefficient`` defaults to the verified value 2; pass 1 to reproduce the
    uncorrected variant as a negative control.
    """
    if n < 2:
        raise ValueError("goldfish structure needs n >= 2")
    chart = tuple([f"q{i + 1}" for i in range(n)] + [f"pi{i + 1}" for i in range(n)])
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

    return PoissonStructure(
        chart=chart,
        matrix=matrix,
        matrix_gradient=matrix_gradient,
        name=f"goldfish[c={c:g}]",
        n=n,
    )


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


def goldfish_parts(point, n: int) -> tuple[np.ndarray, np.ndarray]:
    point = np.asarray(point, dtype=float)
    return point[:n], point[n:]


# ---------------------------------------------------------------------------
# bracket evaluation, Jacobi, flows
# ---------------------------------------------------------------------------

def bracket_eval(
    structure: PoissonStructure,
    f_obs: PhaseObservable,
    g_obs: PhaseObservable,
    point,
) -> float:
    """{F, G} = sum_ab dF/dz_a {z_a, z_b} dG/dz_b at the point."""
    point = np.asarray(point, dtype=float)
    pi_mat = structure.structure_matrix(point)
    return float(f_obs.gradient_at(point) @ pi_mat @ g_obs.gradient_at(point))


def jacobi_residual_all(structure: PoissonStructure, point) -> float:
    """max |{z_a, {z_b, z_c}} + cyclic| over all coordinate triples at the point."""
    point = np.asarray(point, dtype=float)
    pi_mat = structure.structure_matrix(point)
    dpi = structure.structure_gradient(point)
    res = (
        np.einsum("ad,dbc->abc", pi_mat, dpi)
        + np.einsum("bd,dca->abc", pi_mat, dpi)
        + np.einsum("cd,dab->abc", pi_mat, dpi)
    )
    return float(np.abs(res).max())


def hamiltonian_flow(structure: PoissonStructure, hamiltonian: PhaseObservable, point) -> np.ndarray:
    """zdot_a = {z_a, H} for every chart coordinate."""
    point = np.asarray(point, dtype=float)
    pi_mat = structure.structure_matrix(point)
    return pi_mat @ hamiltonian.gradient_at(point)


# ---------------------------------------------------------------------------
# named observables on the built-in charts
# ---------------------------------------------------------------------------

def _pad(structure: PoissonStructure, base_grad: np.ndarray) -> np.ndarray:
    out = np.zeros(structure.dim)
    out[: base_grad.size] = base_grad
    return out


def ecm_hamiltonian_observable(structure: PoissonStructure) -> PhaseObservable:
    """H = 1/2 sum p^2 + 1/2 sum_{i != j} f_ij^2/(q_i - q_j)^2 with analytic gradient."""
    n = structure.n

    def value(z):
        q, p, f = ecm_parts(z, n)
        gaps = pairwise_differences(q) + np.eye(n)
        off = ~np.eye(n, dtype=bool)
        return 0.5 * np.sum(p**2) + 0.5 * np.sum(f[off] ** 2 / gaps[off] ** 2)

    def grad(z):
        q, p, f = ecm_parts(z, n)
        gaps = pairwise_differences(q) + np.eye(n)
        ratios = f**2 / gaps**3
        np.fill_diagonal(ratios, 0.0)
        dq = -2.0 * ratios.sum(axis=1)
        iu, ju = upper_indices(n)
        df = 2.0 * f[iu, ju] / (q[iu] - q[ju]) ** 2
        return _pad(structure, np.concatenate([dq, p, df]))

    return PhaseObservable(evaluate=value, gradient=grad, name="H_ecm")


def total_momentum_observable(structure: PoissonStructure) -> PhaseObservable:
    """P = sum of the momentum-block coordinates (p or pi)."""
    n = structure.n

    def grad(z):
        g = np.zeros(structure.dim)
        g[n : 2 * n] = 1.0
        return g

    return PhaseObservable(
        evaluate=lambda z: float(np.sum(z[n : 2 * n])),
        gradient=grad,
        name="P",
    )


def goldfish_hamiltonian_observable(structure: PoissonStructure) -> PhaseObservable:
    """H = 1/2 (sum pi)^2 on the reduced chart."""
    n = structure.n

    def grad(z):
        g = np.zeros(structure.dim)
        g[n : 2 * n] = np.sum(z[n : 2 * n])
        return g

    return PhaseObservable(
        evaluate=lambda z: 0.5 * float(np.sum(z[n : 2 * n]) ** 2),
        gradient=grad,
        name="H_reduced",
    )


def g_constraint_observable(structure: PoissonStructure, i: int, j: int) -> PhaseObservable:
    """G_ij = 2 (f_ij + (q_i - q_j) sqrt(p_i p_j)) as an observable, i < j (0-based)."""
    n = structure.n
    if not 0 <= i < j < n:
        raise ValueError("need 0 <= i < j < n")
    iu, ju = upper_indices(n)
    f_idx = int(np.flatnonzero((iu == i) & (ju == j))[0])

    def value(z):
        q, p, f = ecm_parts(z, n)
        if p[i] < 0 or p[j] < 0:
            raise NegativeMomentum("G_ij needs p_i, p_j >= 0")
        return 2.0 * (f[i, j] + (q[i] - q[j]) * np.sqrt(p[i] * p[j]))

    def grad(z):
        q, p, _ = ecm_parts(z, n)
        if p[i] <= 0 or p[j] <= 0:
            raise GradientUnavailable("G_ij gradient needs p_i, p_j > 0")
        root = np.sqrt(p[i] * p[j])
        g = np.zeros(structure.dim)
        g[i] = 2.0 * root
        g[j] = -2.0 * root
        g[n + i] = (q[i] - q[j]) * np.sqrt(p[j] / p[i])
        g[n + j] = (q[i] - q[j]) * np.sqrt(p[i] / p[j])
        g[2 * n + f_idx] = 2.0
        return g

    return PhaseObservable(evaluate=value, gradient=grad, name=f"G_{i + 1}_{j + 1}")


def reduced_coordinate_observable(structure: PoissonStructure, k: int) -> PhaseObservable:
    """Q_k = 2 q_k sqrt(p_k) on the ecm chart (0-based k)."""
    n = structure.n

    def value(z):
        q, p, _ = ecm_parts(z, n)
        if p[k] <= 0:
            raise NonPositiveMomentum("Q_k needs p_k > 0")
        return 2.0 * q[k] * np.sqrt(p[k])

    def grad(z):
        q, p, _ = ecm_parts(z, n)
        g = np.zeros(structure.dim)
        g[k] = 2.0 * np.sqrt(p[k])
        g[n + k] = q[k] / np.sqrt(p[k])
        return g

    return PhaseObservable(evaluate=value, gradient=grad, name=f"Q{k + 1}")


def reduced_momentum_observable(structure: PoissonStructure, k: int) -> PhaseObservable:
    """P_k = sqrt(p_k) on the ecm chart (0-based k)."""
    n = structure.n

    def grad(z):
        g = np.zeros(structure.dim)
        g[n + k] = 0.5 / np.sqrt(z[n + k])
        return g

    return PhaseObservable(
        evaluate=lambda z: float(np.sqrt(z[n + k])),
        gradient=grad,
        name=f"P{k + 1}",
    )


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
