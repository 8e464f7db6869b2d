"""Free symmetric-matrix dynamics and its reduction to free vector dynamics.

A straight line X(t) = X0 + t V0 in symmetric matrices, started with a
rank-one velocity, has eigenvalues that solve the goldfish equation.  This
module tracks the eigenframe R(t) two ways (direct eigendecomposition with
continuity fixing, and integration of Rdot = R M), provides the square-root
canonical chart (Q, P), and exposes the rotation-invariant vectors
u = R Q, v = R P whose motion is free.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, symfun
from .errors import DegenerateRay, EigenvalueCollision, NonPositiveMomentum, NonPositiveVelocity
from .utils import finite_vector, orthogonality_defect, pairwise_differences, polar_orthonormalize

#: Frame orthogonality drift that triggers polar re-orthonormalization.
FRAME_DRIFT_TOL = 1e-10


@dataclass(frozen=True)
class MatrixFlow:
    """Straight-line matrix motion X(t) = X0 + t V0, both exactly symmetric."""

    x0: np.ndarray
    v0: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float)
        v0 = np.asarray(self.v0, dtype=float)
        for name, m in (("x0", x0), ("v0", v0)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square")
            if not np.array_equal(m, m.T):
                raise ValueError(f"{name} must be exactly symmetric")
        if x0.shape != v0.shape:
            raise ValueError("x0 and v0 must have equal shape")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "v0", v0)

    @property
    def n(self) -> int:
        return self.x0.shape[0]


@dataclass(frozen=True)
class ReducedChart:
    """Square-root chart: P_i = sqrt(p_i) > 0, Q_i = 2 q_i sqrt(p_i)."""

    Q: np.ndarray
    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "Q", finite_vector(self.Q, name="Q"))
        object.__setattr__(self, "P", finite_vector(self.P, self.Q.size, "P"))
        if np.any(self.P <= 0):
            raise NonPositiveMomentum("chart needs P_i > 0")

    @property
    def n(self) -> int:
        return self.Q.size


@dataclass
class FrameTrajectory:
    """Orthogonal frames over a time grid, optionally with the (Q, P) curves."""

    times: np.ndarray
    frames: np.ndarray  # (n_t, N, N)
    Q: np.ndarray | None = None  # (n_t, N)
    P: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.frames = np.asarray(self.frames, dtype=float)
        worst = max(orthogonality_defect(r) for r in self.frames)
        if worst >= 1e-8:
            raise ValueError(f"stored frame fails orthogonality: defect {worst:.3e}")


def free_flow(flow: MatrixFlow, t: float) -> np.ndarray:
    """X(t) = X0 + t V0."""
    return flow.x0 + t * flow.v0


def eigen_track(
    flow: MatrixFlow,
    times,
    gap_tol: float = 1e-8,
) -> tuple[FrameTrajectory, np.ndarray]:
    """Eigendecomposition of X(t) along a grid with a continuous frame.

    Eigenvalues come out ascending.  The first frame fixes each column's sign
    by making its largest-magnitude entry positive; later frames flip columns
    to keep a positive overlap with the previous time (an overlap of exactly
    0 keeps the sign).  The grid is decomposed in stacks of about 2^16
    entries (16 times at N = 64).  Raises EigenvalueCollision at the first
    time whose eigenvalue gap is below ``gap_tol``.  Returns the frame
    trajectory and the eigenvalue curves, shape (n_t, N).
    """
    times = np.asarray(times, dtype=float)
    n = flow.n
    frames = np.empty((times.size, n, n))
    eigenvalues = np.empty((times.size, n))
    signs = np.empty((times.size, n))
    block = max(1, 2**16 // (n * n))
    for start in range(0, times.size, block):
        stop = min(start + block, times.size)
        vals, frames[start:stop] = np.linalg.eigh(flow.x0 + times[start:stop, None, None] * flow.v0)
        if n > 1:
            gaps = np.diff(vals, axis=1).min(axis=1)
            failing = np.flatnonzero(gaps < gap_tol)
            if failing.size:
                k = failing[0]
                raise EigenvalueCollision(
                    f"eigenvalue gap {gaps[k]:.3e} below {gap_tol:.3e} at t = {times[start + k]:.6g}"
                )
        eigenvalues[start:stop] = vals
        # sign of each raw column's overlap with the raw column one time
        # earlier; a flipped column flips its overlaps exactly, so the flips
        # are the running product of these signs
        first = max(start, 1)
        signs[first:stop] = np.sign(np.sum(frames[first - 1 : stop - 1] * frames[first:stop], axis=1))
    if times.size:
        lead = np.abs(frames[0]).argmax(axis=0)
        signs[0] = np.sign(frames[0][lead, np.arange(n)])
    signs[signs == 0] = 1.0
    frames *= np.cumprod(signs, axis=0)[:, None, :]
    return FrameTrajectory(times=times, frames=frames), eigenvalues


def rank1_velocity(q0, qdot0) -> MatrixFlow:
    """Matrix data X0 = diag(q0), V0 = v v^T with v_i = sqrt(qdot0_i).

    V0 has a single positive eigenvalue sum(qdot0); the eigenvalues of
    X0 + t V0 then follow the goldfish flow with data (q0, qdot0).
    """
    q0 = symfun.as_configuration(q0)
    qdot0 = finite_vector(qdot0, q0.size, "qdot0")
    if np.any(qdot0 <= 0):
        raise NonPositiveVelocity("rank-one velocity needs qdot0_i > 0")
    v = np.sqrt(qdot0)
    return MatrixFlow(np.diag(q0), np.outer(v, v))


def canonical_transform(q, p) -> ReducedChart:
    """(q, p) -> (Q, P) with P_i = sqrt(p_i), Q_i = 2 q_i sqrt(p_i); needs p > 0."""
    q = finite_vector(q, name="q")
    p = finite_vector(p, q.size, "p")
    if np.any(p <= 0):
        raise NonPositiveMomentum("canonical transform needs p_i > 0")
    root = np.sqrt(p)
    return ReducedChart(Q=2.0 * q * root, P=root)


def angular_momentum(chart: ReducedChart) -> np.ndarray:
    """L_ij = Q_i P_j - Q_j P_i = 2 (q_i - q_j) sqrt(p_i p_j)."""
    return np.outer(chart.Q, chart.P) - np.outer(chart.P, chart.Q)


def m_matrix(q, p) -> np.ndarray:
    """Frame generator M_ij = -sqrt(p_i p_j)/(q_i - q_j) on the constraint surface.

    On G = 0 this equals f_ij / q_ij^2 and -2 P_i^2 P_j^2 / (Q_i P_j - Q_j P_i);
    the tests check the three forms against each other.  Needs p > 0.
    """
    q = symfun.as_configuration(q)
    p = finite_vector(p, q.size, "p")
    if np.any(p <= 0):
        raise NonPositiveMomentum("m matrix needs p_i > 0")
    return _m_closed_form(q, p)


def _m_closed_form(q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``m_matrix`` on plain arrays, unvalidated: the frame flow's generator."""
    n = q.size
    gaps = pairwise_differences(q)
    # a fresh C-contiguous matrix: one strided write sets its diagonal
    gaps.ravel()[:: n + 1] = 1.0
    m = -np.sqrt(np.outer(p, p)) / gaps
    m.ravel()[:: n + 1] = 0.0
    return m


def qp_rhs(chart: ReducedChart) -> tuple[np.ndarray, np.ndarray]:
    """Motion in the square-root chart.

    Qdot_i = 2 P_i^3 + 2 Q_i P_i s_i and Pdot_i = 2 P_i^2 s_i with
    s_i = sum_{j != i} P_j^3 / (Q_i P_j - Q_j P_i); the combination
    Qdot_i P_i - Q_i Pdot_i equals 2 P_i^4.
    """
    n = chart.n
    rays = angular_momentum(chart)
    off = ~np.eye(n, dtype=bool)
    if n > 1 and np.abs(rays[off]).min() == 0.0:
        raise DegenerateRay("Q_i P_j - Q_j P_i vanished for some pair")
    inv = np.where(off, 1.0 / (rays + np.eye(n)), 0.0)
    s = inv @ chart.P**3
    qdot = 2.0 * chart.P**3 + 2.0 * chart.Q * chart.P * s
    pdot = 2.0 * chart.P**2 * s
    return qdot, pdot


class FrameSystem(dynamics.GoldfishSystem):
    """The goldfish flow carrying its eigenframe: packed state (q, qdot, R).

    The (qdot, qddot) block of ``rhs`` is ``GoldfishSystem``'s bit for bit,
    and R follows Rdot = R M with M = ``m_matrix(q, qdot)``; R feeds back
    into nothing.  ``pack`` starts R at the identity.
    """

    def pack(self, state: dynamics.GoldfishState) -> np.ndarray:
        return np.concatenate([state.q, state.qdot, np.eye(self.n).ravel()])

    def rhs(self, t, y):
        n = self.n
        q, qdot = y[:n], y[n : 2 * n]
        qddot = dynamics.pair_acceleration(q, qdot, self.coupling)
        rdot = y[2 * n :].reshape(n, n) @ _m_closed_form(q, qdot)
        return np.concatenate([qdot, qddot, rdot.ravel()])


def frame_flow(
    q0,
    qdot0,
    t_end: float,
    config: dynamics.IntegratorConfig | None,
    output_points: int,
) -> FrameTrajectory:
    """The goldfish flow with Rdot = R M from R(0) = I, as one ``dynamics.integrate`` run.

    The frames and the (Q, P) curves are read on integrate's grid of
    ``output_points`` times over [0, t_end]; a frame whose orthogonality
    defect exceeds FRAME_DRIFT_TOL is polar-projected back onto the
    orthogonal group as it is read.  Velocities must be positive (square
    roots inside M).  Raises integrate's errors unchanged.
    """
    state0 = dynamics.GoldfishState(q0, qdot0)
    if np.any(state0.qdot <= 0):
        raise NonPositiveVelocity("frame flow needs qdot0_i > 0")
    n = state0.n
    traj = dynamics.integrate(FrameSystem(n), state0, t_end, config, output_points)
    frames = np.ascontiguousarray(traj.rows[:, 2 * n :]).reshape(-1, n, n)
    for k, r in enumerate(frames):
        if orthogonality_defect(r) > FRAME_DRIFT_TOL:
            frames[k] = polar_orthonormalize(r)
    charts = [canonical_transform(y[:n], y[n : 2 * n]) for y in traj.rows]
    return FrameTrajectory(
        times=traj.times,
        frames=frames,
        Q=np.vstack([c.Q for c in charts]),
        P=np.vstack([c.P for c in charts]),
    )


def invariant_vectors(ft: FrameTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """u(t) = R(t) Q(t) and v(t) = R(t) P(t); v is constant and u linear in t."""
    if ft.Q is None or ft.P is None:
        raise ValueError("frame trajectory has no (Q, P) curves")
    u = np.einsum("tij,tj->ti", ft.frames, ft.Q)
    v = np.einsum("tij,tj->ti", ft.frames, ft.P)
    return u, v
