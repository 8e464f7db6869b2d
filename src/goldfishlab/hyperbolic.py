"""Hyperbolic variant: sinh interactions, Lax pair, and exact solutions.

The deformed flow lives on positive matrices.  Its eigenvalue dynamics is the
sinh-coupled second-order system which degenerates to the rational goldfish
flow as the deformation parameter a -> 0.  The coth flow is the goldfish flat
line in z = e^{2 q} on the clock gamma(t): its two exact routes are the
eigenvalues of Z(t) = e^{2 Lambda0} e^{2 t L0} and the roots of the
polynomial with Vieta data s(t), plus the one-line root characterization
f(q) = 0 used as a residual cross-check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, secular, symfun
from .errors import (
    NonPositiveEigenvalue,
    NonPositiveRoot,
    NonPositiveVelocity,
    NonRealSpectrum,
    PoleProximity,
    SecularOutOfDomain,
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
    def momentum(self) -> float:
        """P = sum c_i, the conserved total velocity."""
        return float(np.sum(self.c_vec))


def clock(p: float, t):
    """gamma(t) = expm1(2 P t)/P, and its limit 2t at P = 0: the coth flow's time on its flat line.

    s = e(e^{2 q}) moves on s(0) + gamma(t) b (``s_initial``) as x = e(q)
    moves on x(0) + t b in the goldfish flow.  gamma' = 2 + 2 P gamma; gamma
    overflows to inf, without a warning, once 2 P t > 709.
    """
    if p == 0:
        return 2.0 * t
    with np.errstate(over="ignore"):
        return np.expm1(2.0 * p * t) / p


def lax_pair(q: np.ndarray, qdot: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Lax matrices (L, M) of the sinh flow with the square-root substitution.

    M_ij = -2a sqrt(qdot_i qdot_j) / sinh(2a (q_i - q_j)) off the diagonal;
    L_ij = delta_ij qdot_i - sinh(2a (q_i - q_j))/(2a) M_ij, which collapses
    to the rank-one form sqrt(qdot_i qdot_j).  Along the flow Ldot = [L, M],
    so the spectrum of L is conserved.  Needs a != 0 and every qdot_i > 0.
    """
    if np.any(qdot <= 0):
        raise NonPositiveVelocity("lax substitution needs qdot_i > 0")
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


def _rank_one_exp(c_vec: np.ndarray, p: float, t: float) -> np.ndarray:
    """e^{2 t L} for the rank-one L = 1 c^T, (L)_ij = c_j, in closed form.

    L^2 = P L with P = sum c_i, so e^{2 t L} = I + gamma(t) L (``clock``).
    """
    return np.eye(c_vec.size) + clock(p, t) * c_vec


def z_eigen_solution(data: HyperbolicData, t: float) -> np.ndarray:
    """Positions ln(mu) / 2 from the ascending eigenvalues mu of Z(t) = e^{2 Lambda0} e^{2 t L0}.

    (L0)_ij = c_j row-replicated (``_rank_one_exp``); c of any sign.  Raises
    NonRealSpectrum, NonPositiveEigenvalue, or RootCollision where two
    positions lie closer than ``symfun.COLLISION_TOL``, as ``s_exact`` does.
    """
    z = np.exp(2.0 * data.a_vec)[:, None] * _rank_one_exp(data.c_vec, data.momentum, t)
    mu = np.linalg.eigvals(z)
    worst_imag = float(np.abs(mu.imag).max())
    if worst_imag >= symfun.IMAG_TOL:
        raise NonRealSpectrum(f"imaginary part {worst_imag:.3e} >= {symfun.IMAG_TOL:.3e}")
    mu = np.sort(mu.real)
    if mu[0] <= 0:
        raise NonPositiveEigenvalue(f"smallest eigenvalue {mu[0]:.3e} <= 0")
    return secular.separated(0.5 * np.log(mu))


def s_initial(data: HyperbolicData) -> tuple[np.ndarray, np.ndarray]:
    """(s(0), b) with s(t) = s(0) + gamma(t) b: the goldfish flat line of z = e^{2 a}.

    s(0) = e(z) and b = J(z) c z (``symfun.flat_line``), so sdot(0) = 2 b.
    z is not validated: its gaps may lie below the collision tolerance
    (a_vec near -20), where the root recovery reports the collision.  Raises
    NonPositiveRoot where z, s(0) or b overflows (from a_i near 354 on).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z0 = np.exp(2.0 * data.a_vec)
        s0, b = symfun.flat_line(z0, data.c_vec * z0)
    if not (np.isfinite(s0).all() and np.isfinite(b).all()):
        largest = data.a_vec[-1]
        raise NonPositiveRoot(f"s(0) or sdot(0) overflows double precision (largest a_i = {largest:g})")
    return s0, b


def s_exact(data: HyperbolicData, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact (s(t), q(t)): s(t) = s(0) + gamma(t) b, and q(t) half the logs
    of the roots of the monic polynomial with Vieta coefficients s(t)."""
    s0, b = s_initial(data)
    s_t = s0 + clock(data.momentum, t) * b
    roots = symfun.roots_from_coords(s_t)
    if roots[0] <= 0:
        raise NonPositiveRoot(f"smallest root {roots[0]:.3e} <= 0")
    return s_t, 0.5 * np.log(roots)


def s_derivatives(data: HyperbolicData, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, sdot, sddot) at time t: the line s(0) + gamma b, with gamma' = 2 + 2 P gamma."""
    s0, b = s_initial(data)
    p = data.momentum
    gamma = clock(p, t)
    rate = 2.0 + 2.0 * p * gamma
    return s0 + gamma * b, rate * b, 2.0 * p * rate * b


#: The typed error of each exact coth route, raised where its data leave the
#: secular domain in double precision.
_ERRORS = {"z_eigen": NonPositiveEigenvalue, "s_exact": NonPositiveRoot}


def exact_trajectory(data: HyperbolicData, times, route: str) -> np.ndarray:
    """Positions of the exact coth route ``route`` (``_ERRORS``) on a time grid, shape (len(times), N).

    The eigenvalues mu(t) of Z(t) = diag(z) + gamma z c^T, z = e^{2 a}, solve
    1/gamma + sum_i c_i z_i/(z_i - mu) = 0: ``secular.positions`` on
    (z, c z, ``clock``).  The poles must be normal numbers (none underflowed)
    and the roots > 0; the route's typed error names these conditions and
    those of the secular domain.  A root's offset tau from its pole z_o maps
    to a_o + log1p(tau/z_o)/2.  Raises RootCollision where two positions lie
    closer than ``symfun.COLLISION_TOL``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        z = np.exp(2.0 * data.a_vec)
        w = data.c_vec * z
    if not z[0] >= np.finfo(float).tiny:
        raise _ERRORS[route]("poles d must be positive normal numbers")
    try:
        origin, offset = secular.positions(z, w, clock(data.momentum, np.asarray(times, dtype=float)))
    except SecularOutOfDomain as exc:
        raise _ERRORS[route](str(exc)) from None
    with np.errstate(over="ignore"):
        ratio = offset / z[origin]
    if not ratio.min() > -1.0:
        raise _ERRORS[route](f"smallest root {(z[origin] + offset).min():.3e} <= 0")
    return secular.separated(data.a_vec[origin] + 0.5 * np.log1p(ratio))


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
        return np.sort(np.linalg.eigvalsh(lax_pair(q, qdot, self.a)[0]))

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
    """f(q) = sum_i c_i (tanh(P t)/P) / tanh(q - a_i) - 1, where tanh(P t)/P is t at P = 0.

    The coth trajectory passes through the roots of f; used as a residual
    check only.  Raises PoleProximity within ``POLE_TOL`` of any a_i.
    """
    p = data.momentum
    gaps = q - data.a_vec
    if np.abs(gaps).min() < POLE_TOL:
        raise PoleProximity(f"q within {POLE_TOL:g} of a pole")
    scale = t if p == 0 else np.tanh(p * t) / p
    return float(np.sum(data.c_vec * scale / np.tanh(gaps)) - 1.0)
