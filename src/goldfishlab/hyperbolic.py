"""Hyperbolic variant: sinh interactions, Lax pair, and exact solutions.

The deformed flow lives on positive matrices.  Its eigenvalue dynamics is the
sinh-coupled second-order system which degenerates to the rational goldfish
flow as the deformation parameter a -> 0.  Two exact routes for the coth
equation are provided: eigenvalues of Z(t) = e^{2 Lambda0} e^{2 t L0}, and the
linear evolution of the symmetric functions of e^{2 q_i}, plus the one-line
root characterization f(q) = 0 used as a residual cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, secular, symfun
from .errors import (
    GoldfishLabError,
    NonPositiveEigenvalue,
    NonPositiveRoot,
    NonPositiveVelocity,
    NonRealSpectrum,
    PoleProximity,
    RootCollision,
    ZeroMomentum,
)
from .utils import finite_vector, pairwise_differences

#: Distance from a pole a_i within which ``root_function_f`` is not evaluated.
POLE_TOL = 1e-8


# The pair-flow state under its former name: perfbench/layers.py builds it.
HyperbolicState = dynamics.GoldfishState


@dataclass(frozen=True)
class HyperbolicData:
    """Deformation parameter a with initial positions a_vec and velocities c_vec."""

    a: float
    a_vec: np.ndarray
    c_vec: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_vec", symfun.as_configuration(self.a_vec))
        object.__setattr__(self, "c_vec", finite_vector(self.c_vec, self.a_vec.size, "c_vec"))

    @property
    def n(self) -> int:
        return self.a_vec.size

    @property
    def momentum(self) -> float:
        """P = sum c_i, the conserved total velocity."""
        return float(np.sum(self.c_vec))


def hyperbolic_rhs(state: dynamics.GoldfishState, a: float) -> np.ndarray:
    """qddot_i = 2 sum_{j != i} 2 a qdot_i qdot_j / sinh(2 a (q_i - q_j))."""
    if a == 0:
        raise ValueError("a must be nonzero; the a -> 0 limit is the rational flow")
    return dynamics.pair_acceleration(state.q, state.qdot, SinhSystem(state.n, a).coupling)


def coth_rhs(state: dynamics.GoldfishState) -> np.ndarray:
    """qddot_i = 2 sum_{j != i} qdot_i qdot_j coth(q_i - q_j)."""
    return dynamics.pair_acceleration(state.q, state.qdot, CothSystem.coupling)


def lax_pair(state: dynamics.GoldfishState, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Lax matrices (L, M) of the sinh flow with the square-root substitution.

    M_ij = -2a sqrt(qdot_i qdot_j) / sinh(2a (q_i - q_j)) off the diagonal;
    L_ij = delta_ij qdot_i - sinh(2a (q_i - q_j))/(2a) M_ij, which collapses
    to the rank-one form sqrt(qdot_i qdot_j).  Along the flow Ldot = [L, M],
    so the spectrum of L is conserved.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if np.any(state.qdot <= 0):
        raise NonPositiveVelocity("lax substitution needs qdot_i > 0")
    return _lax_matrices(state.q, state.qdot, a)


def _lax_matrices(q: np.ndarray, qdot: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """``lax_pair`` on plain arrays, for a != 0 and qdot > 0."""
    n = q.size
    gaps = pairwise_differences(q)
    off = ~np.eye(n, dtype=bool)
    roots = np.sqrt(np.outer(qdot, qdot))
    m = np.zeros((n, n))
    sinh_fac = np.zeros((n, n))
    # sinh overflows once 2a |gap| > 710: M_ij is 0 there and sinh_fac * m
    # is inf * 0, so those entries of L take their value sqrt(qdot_i qdot_j)
    with np.errstate(over="ignore", invalid="ignore"):
        sinh = np.sinh(2.0 * a * gaps[off])
        m[off] = -2.0 * a * roots[off] / sinh
        sinh_fac[off] = sinh / (2.0 * a)
        lax = np.diag(qdot) - sinh_fac * m
    overflow = np.isinf(sinh_fac)
    lax[overflow] = roots[overflow]
    return lax, m


def initial_velocity_matrix(data: HyperbolicData) -> np.ndarray:
    """(V0)_ij = a sqrt(c_i c_j) / cosh(a (a_i - a_j)); needs c_i > 0."""
    if np.any(data.c_vec <= 0):
        raise NonPositiveVelocity("V0 needs c_i > 0")
    gaps = pairwise_differences(data.a_vec)
    return data.a * np.sqrt(np.outer(data.c_vec, data.c_vec)) / np.cosh(data.a * gaps)


def _symmetric_expm(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^S for symmetric S via eigendecomposition; returns (e^S, eigensystem)."""
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.exp(vals)) @ vecs.T, (vals, vecs)


def matrix_geodesic(data: HyperbolicData, t: float) -> np.ndarray:
    """X(t) = e^{a Lambda0} e^{2 t V0} e^{a Lambda0} on positive matrices."""
    v0 = initial_velocity_matrix(data)
    left = np.exp(data.a * data.a_vec)
    middle, _ = _symmetric_expm(2.0 * t * v0)
    return left[:, None] * middle * left[None, :]


def matrix_positions(data: HyperbolicData, t: float) -> np.ndarray:
    """Positions log(mu) / (2a) from the ascending eigenvalues mu of ``matrix_geodesic``.

    eigvalsh resolves the eigenvalues only to eps * max(mu), and max(mu) grows
    like e^{2a (a_N - a_1)}, so at large a the small ones are lost.  Raises
    NonPositiveEigenvalue where X(t) is not finite in doubles or an
    eigenvalue is <= 0, instead of returning a NaN position.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = matrix_geodesic(data, t)
    if not np.isfinite(x).all():
        raise NonPositiveEigenvalue(f"X(t) is not finite in double precision at t = {t:.6g}")
    mu = np.linalg.eigvalsh(x)
    if mu[0] <= 0:
        raise NonPositiveEigenvalue(f"smallest eigenvalue {mu[0]:.3e} <= 0 at t = {t:.6g}")
    return np.log(mu) / (2.0 * data.a)


def conserved_combination(data: HyperbolicData, t: float) -> np.ndarray:
    """K(t) = Xdot X^{-1} + X^{-1} Xdot, constant along the matrix geodesic.

    Dividing by 4a gives the matrix conjugate to the Lax matrix of the
    eigenvalue flow.
    """
    v0 = initial_velocity_matrix(data)
    middle, (vals, vecs) = _symmetric_expm(2.0 * t * v0)
    middle_inv = (vecs * np.exp(-vals)) @ vecs.T
    dmiddle = 2.0 * v0 @ middle  # V0 commutes with its own exponential
    left = np.exp(data.a * data.a_vec)
    xdot = left[:, None] * dmiddle * left[None, :]
    xinv = (1.0 / left)[:, None] * middle_inv * (1.0 / left)[None, :]
    return xdot @ xinv + xinv @ xdot


def _rank_one_exp(c_vec: np.ndarray, p: float, s: float) -> np.ndarray:
    """e^{s L} for the rank-one L = 1 c^T, (L)_ij = c_j, in closed form.

    L^2 = P L with P = sum c_i != 0, so e^{s L} = I + gamma L with
    gamma = (e^{s P} - 1) / P.
    """
    return np.eye(c_vec.size) + np.expm1(s * p) / p * c_vec


def z_eigen_solution(data: HyperbolicData, t: float) -> np.ndarray:
    """Positions from the eigenvalues of Z(t) = e^{2 Lambda0} e^{2 t L0}.

    (L0)_ij = c_j row-replicated, and e^{2 t L0} = I + gamma L0 in closed form.
    Mixed-sign velocities are allowed here, only reality and positivity of
    the spectrum are enforced: q_i = ln(mu_i) / 2 with mu ascending.  Raises
    RootCollision where two positions lie closer than ``symfun.COLLISION_TOL``,
    as the root recovery of ``s_exact`` does.
    """
    p = data.momentum
    if p == 0:
        raise ZeroMomentum("z route needs P = sum c_i != 0")
    z = np.exp(2.0 * data.a_vec)[:, None] * _rank_one_exp(data.c_vec, p, 2.0 * t)
    mu = np.linalg.eigvals(z)
    worst_imag = float(np.abs(mu.imag).max())
    if worst_imag >= symfun.IMAG_TOL:
        raise NonRealSpectrum(f"imaginary part {worst_imag:.3e} >= {symfun.IMAG_TOL:.3e}")
    mu = np.sort(mu.real)
    if mu[0] <= 0:
        raise NonPositiveEigenvalue(f"smallest eigenvalue {mu[0]:.3e} <= 0")
    q = 0.5 * np.log(mu)
    gap = np.diff(q).min() if q.size > 1 else np.inf
    if gap < symfun.COLLISION_TOL:
        raise RootCollision(f"position gap {gap:.3e} below collision tolerance {symfun.COLLISION_TOL:.3e}")
    return q


def s_initial(data: HyperbolicData) -> tuple[np.ndarray, np.ndarray]:
    """s_n(0) and sdot_n(0): symmetric functions of z_i = e^{2 a_i} and their rates.

    z is not validated as a configuration: its order is that of a_vec, and
    its gaps may lie below the collision tolerance (a_vec near -20), where the
    root recovery reports the collision.  Raises NonPositiveRoot where z, s(0)
    or sdot(0) overflows double precision (from a_i near 354 on): the roots
    z_i of the s polynomial are then out of reach.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z0 = np.exp(2.0 * data.a_vec)
        finite = np.isfinite(z0).all()
        if finite:
            s0, sdot0 = symfun.flat_line(z0, 2.0 * data.c_vec * z0)
            finite = np.isfinite(s0).all() and np.isfinite(sdot0).all()
    if not finite:
        raise NonPositiveRoot(
            f"s(0) or sdot(0) overflows double precision (largest a_i = {data.a_vec[-1]:g})"
        )
    return s0, sdot0


def _s_line(data: HyperbolicData) -> tuple[float, np.ndarray, np.ndarray]:
    """(P, alpha, beta) with s_n(t) = alpha_n + beta_n e^{2 P t}."""
    p = data.momentum
    if p == 0:
        raise ZeroMomentum("s route needs P = sum c_i != 0")
    s0, sdot0 = s_initial(data)
    beta = sdot0 / (2.0 * p)
    return p, s0 - beta, beta


def s_exact(data: HyperbolicData, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (s(t), q(t)) from the linear evolution sddot_n = 2 P sdot_n.

    Each s_n(t) = alpha_n + beta_n e^{2 P t}; q(t) is recovered as half the
    logs of the roots of the monic polynomial with Vieta coefficients s(t).
    """
    p, alpha, beta = _s_line(data)
    s_t = alpha + beta * np.exp(2.0 * p * t)
    roots = symfun.roots_from_coords(s_t)
    if roots[0] <= 0:
        raise NonPositiveRoot(f"smallest root {roots[0]:.3e} <= 0")
    return s_t, 0.5 * np.log(roots)


def _secular_positions(data: HyperbolicData, times, error: type[GoldfishLabError]) -> np.ndarray | None:
    """q(t) on a grid from the secular equation of Z(t), or None unless every c_i > 0.

    Z(t) = diag(z) + gamma z c^T with z = e^{2 a} and gamma = expm1(2 P t)/P,
    so mu(t) solves 1/gamma + sum_i c_i z_i/(z_i - mu) = 0, for t >= 0.  With
    every c_i > 0 that is the kernel's domain wherever z, c z and gamma are
    finite and z and c z positive, and z strictly increasing; elsewhere the
    route's ``error`` is raised.  The log map q = a_o + log1p(tau/z_o)/2 takes
    the root's offset tau to its origin pole z_o.
    """
    if np.any(data.c_vec <= 0):
        return None
    p = data.momentum
    with np.errstate(over="ignore"):
        z = np.exp(2.0 * data.a_vec)
        w = data.c_vec * z
        gamma = np.expm1(2.0 * p * np.asarray(times, dtype=float)) / p
    if not (np.isfinite(w).all() and np.isfinite(gamma).all()):
        raise error("e^(2 a_i), c_i e^(2 a_i) or expm1(2 P t)/P is not finite in double precision")
    if not (z[0] > 0 and np.all(w > 0) and np.all(np.diff(z) > 0)):
        raise error("e^(2 a_i) or c_i e^(2 a_i) underflows double precision")
    origin, offset = secular.secular_offsets(z, w, gamma)
    return data.a_vec[origin] + 0.5 * np.log1p(offset / z[origin])


def z_eigen_trajectory(data: HyperbolicData, times) -> np.ndarray:
    """``z_eigen_solution`` on a time grid, shape (len(times), N).

    With every c_i > 0 all times are solved at once (``_secular_positions``),
    which raises NonPositiveEigenvalue where the data leave double precision;
    mixed-sign velocities run ``z_eigen_solution`` per point, with its typed
    errors.
    """
    q = _secular_positions(data, times, NonPositiveEigenvalue)
    if q is not None:
        return q
    return np.vstack([z_eigen_solution(data, t) for t in np.asarray(times, dtype=float)])


def s_exact_trajectory(data: HyperbolicData, times) -> np.ndarray:
    """Exact positions q(t) on a time grid, shape (len(times), N).

    With every c_i > 0 this is ``z_eigen_trajectory``'s solution (the roots
    of the polynomial with Vieta data s(t) are the eigenvalues of Z(t)), and
    the data leaving double precision raise NonPositiveRoot; mixed-sign
    velocities run ``s_exact`` per point, with its typed errors.
    """
    q = _secular_positions(data, times, NonPositiveRoot)
    if q is not None:
        return q
    return np.vstack([s_exact(data, t)[1] for t in np.asarray(times, dtype=float)])


def s_derivatives(data: HyperbolicData, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, sdot, sddot) at time t from the closed form."""
    p, alpha, beta = _s_line(data)
    growth = np.exp(2.0 * p * t)
    return alpha + beta * growth, 2.0 * p * beta * growth, 4.0 * p * p * beta * growth


def _momentum_drift(n: int, reference: float, rows: np.ndarray) -> np.ndarray:
    """|sum qdot - reference| per row of packed (q, qdot) states."""
    # summed along contiguous rows, each sum is np.sum of that row's velocities
    velocities = np.ascontiguousarray(rows[:, n:])
    return np.abs(velocities.sum(axis=1) - reference)


class SinhSystem(dynamics.PairFlowSystem):
    """The sinh flow of deformation parameter a."""

    def __init__(self, n: int, a: float):
        if a == 0:
            raise ValueError("a must be nonzero")
        self.n = n
        self.a = float(a)

    def coupling(self, gaps: np.ndarray) -> np.ndarray:
        # sinh overflows to inf once 2 a |gap| > 710, where the coupling is 0
        with np.errstate(over="ignore"):
            return 2.0 * self.a / np.sinh(2.0 * self.a * gaps)

    def _spectrum(self, q: np.ndarray, qdot: np.ndarray) -> np.ndarray | None:
        """Ascending spectrum of the Lax matrix L; None unless every qdot_i > 0."""
        if not np.all(qdot > 0):
            return None
        return np.sort(np.linalg.eigvalsh(_lax_matrices(q, qdot, self.a)[0]))

    def reference(self, state0: dynamics.GoldfishState):
        return float(np.sum(state0.qdot)), self._spectrum(state0.q, state0.qdot)

    def grid_diagnostics(self, reference, rows):
        momentum0, spectrum0 = reference
        spectrum_drift = np.full(len(rows), np.nan)
        if spectrum0 is not None:
            for k, y in enumerate(rows):
                spectrum = self._spectrum(y[: self.n], y[self.n :])
                if spectrum is not None:
                    spectrum_drift[k] = np.abs(spectrum - spectrum0).max()
        return {"momentum_drift": _momentum_drift(self.n, momentum0, rows),
                "spectrum_drift": spectrum_drift}


class CothSystem(dynamics.PairFlowSystem):
    """The coth flow."""

    @staticmethod
    def coupling(gaps: np.ndarray) -> np.ndarray:
        return 1.0 / np.tanh(gaps)

    def reference(self, state0: dynamics.GoldfishState):
        return float(np.sum(state0.qdot))

    def grid_diagnostics(self, reference, rows):
        return {"momentum_drift": _momentum_drift(self.n, reference, rows)}


def root_function_f(data: HyperbolicData, t: float, q: float) -> float:
    """f(q) = sum_i (c_i / P) tanh(P t) / tanh(q - a_i) - 1.

    The coth trajectory passes through the roots of f; used as a residual
    check only.  Raises PoleProximity within ``POLE_TOL`` of any a_i.
    """
    p = data.momentum
    gaps = q - data.a_vec
    if np.abs(gaps).min() < POLE_TOL:
        raise PoleProximity(f"q within {POLE_TOL:g} of a pole")
    return float(np.sum((data.c_vec / p) * np.tanh(p * t) / np.tanh(gaps)) - 1.0)
