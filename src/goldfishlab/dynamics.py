"""Right-hand sides, conserved quantities, exact solver and integrator.

The goldfish system is solved two independent ways: by adaptive
Runge-Kutta integration of the second-order equations of motion, and exactly
through the flat coordinates, where the motion is a straight line and the
positions come back as polynomial roots.  The spin-extended system evolves
(q, p, f) and reduces to the goldfish flow on the constraint surface G = 0.
"""
from __future__ import annotations

from functools import cached_property
from typing import Any

import numpy as np

from . import symfun
from .errors import (
    CollisionDetected,
    NonPositiveVelocity,
    NegativeMomentum,
    StepSizeUnderflow,
)
from .rk45 import solve_ivp
from .utils import (
    antisymmetric_from_upper,
    check_antisymmetric,
    finite_vector,
    pairwise_differences,
    upper_indices,
    upper_triangle,
)


# ---------------------------------------------------------------------------
# states and configuration
# ---------------------------------------------------------------------------

class GoldfishState:
    """Positions q with velocities qdot: the state of every pair flow
    (``PairFlowSystem``: goldfish, sinh and coth)."""

    def __init__(self, q, qdot):
        self.q = symfun.as_configuration(q)
        self.qdot = finite_vector(qdot, self.q.size, "qdot")

    @property
    def n(self) -> int:
        return self.q.size


class ECMState:
    """Positions, momenta and antisymmetric spin matrix (stored upper triangle)."""

    def __init__(self, q, p, f_upper):
        self.q = symfun.as_configuration(q)
        n = self.q.size
        self.p = finite_vector(p, n, "p")
        fu = np.asarray(f_upper, dtype=float)
        if fu.ndim == 2:
            fu = upper_triangle(check_antisymmetric(fu, n))
        self.f_upper = finite_vector(fu, n * (n - 1) // 2, "f_upper")

    @property
    def n(self) -> int:
        return self.q.size

    @property
    def f(self) -> np.ndarray:
        return antisymmetric_from_upper(self.f_upper, self.n)


class IntegratorConfig:
    """Tolerances and collision gap for ``integrate``.

    The tolerances go to ``rk45.solve_ivp``, which raises a rel_tol below
    100 eps to 100 eps.
    """

    def __init__(self, rel_tol: float = 1e-10, abs_tol: float = 1e-12,
                 collision_gap: float = symfun.COLLISION_TOL):
        # written so that NaN fails too: the RK loop never finishes with a NaN tolerance
        if not (rel_tol > 0 and abs_tol > 0):
            raise ValueError("tolerances must be positive")
        if not 0 <= collision_gap < np.inf:
            raise ValueError("collision_gap must be finite and >= 0")
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.collision_gap = collision_gap


class Trajectory:
    """Time grid and one packed state per time, ``rows[k]`` at ``times[k]``.

    The per-time states and the named per-time diagnostic residuals are built
    from the rows on first access, so a caller that reads only the rows pays
    for neither.
    """

    def __init__(self, system: OdeSystem, state0, times, rows: np.ndarray):
        self.times = np.asarray(times, dtype=float)
        if self.times.size > 1 and np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if len(rows) != self.times.size:
            raise ValueError("one state per time required")
        self.system = system
        self.state0 = state0
        self.rows = rows

    @cached_property
    def states(self) -> list[Any]:
        return [self.system.unpack(y) for y in self.rows]

    @cached_property
    def diagnostics(self) -> dict[str, np.ndarray]:
        """Residuals against values frozen at t = 0, one array per name."""
        return self.system.grid_diagnostics(self.system.reference(self.state0), self.rows)


# ---------------------------------------------------------------------------
# right-hand sides and conserved quantities
# ---------------------------------------------------------------------------

def pair_acceleration(q: np.ndarray, qdot: np.ndarray, coupling) -> np.ndarray:
    """qddot_i = 2 qdot_i sum_{j != i} coupling(q_i - q_j) qdot_j on plain arrays.

    The goldfish flow has the coupling np.reciprocal, the sinh and coth flows
    of ``hyperbolic`` theirs.
    """
    n = q.size
    gaps = pairwise_differences(q)
    # fresh C-contiguous matrices: one strided write masks the diagonal; the
    # couplings are finite at an infinite gap and raise no floating-point
    # warning there
    gaps.ravel()[:: n + 1] = np.inf
    kernel = coupling(gaps)
    kernel.ravel()[:: n + 1] = 0.0
    return 2.0 * qdot * (kernel @ qdot)


def ecm_forces(q: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(pdot, fdot) of the spin system on plain arrays, f the full antisymmetric matrix.

    pdot_i = 2 sum_k f_ik^2/(q_i-q_k)^3 and
    fdot_ij = -sum_{k != i,j} f_ik f_kj (1/q_ik^2 - 1/q_kj^2).
    """
    n = q.size
    gaps = pairwise_differences(q)
    # fresh C-contiguous matrices: one strided write masks the diagonal
    gaps.ravel()[:: n + 1] = 1.0
    ratios = f**2 / gaps**3
    ratios.ravel()[:: n + 1] = 0.0
    pdot = 2.0 * ratios.sum(axis=1)
    inv2 = 1.0 / gaps**2
    inv2.ravel()[:: n + 1] = 0.0
    # fdot_ij = -sum_k f_ik f_kj / q_ik^2 + sum_k f_ik f_kj / q_kj^2
    fdot = -(f * inv2) @ f + f @ (inv2 * f)
    return pdot, fdot


def ecm_hamiltonian(state: ECMState) -> float:
    """H = 1/2 sum p^2 + 1/2 sum_{i != j} f_ij^2/(q_i - q_j)^2."""
    n = state.n
    gaps = pairwise_differences(state.q) + np.eye(n)
    off = ~np.eye(n, dtype=bool)
    return 0.5 * float(np.sum(state.p**2)) + 0.5 * float(np.sum(state.f[off] ** 2 / gaps[off] ** 2))


def ecm_hamiltonian_g(state: ECMState) -> float:
    """The Hamiltonian rewritten through the constraint values G_ij.

    H = 1/2 (sum p)^2 + 1/8 sum G^2/(q-q)^2 - 1/2 sum G sqrt(p p)/(q-q); the
    cross-term coefficient -1/2 makes this an exact rewriting (on G = 0 it
    collapses to P^2/2).  Requires p >= 0.
    """
    from . import poisson

    n = state.n
    if np.any(state.p < 0):
        raise NegativeMomentum("G-form needs p_i >= 0")
    gaps = pairwise_differences(state.q) + np.eye(n)
    off = ~np.eye(n, dtype=bool)
    g = poisson.g_constraints(state.q, state.p, state.f)
    roots = np.sqrt(np.outer(state.p, state.p))
    return (
        0.5 * float(np.sum(state.p)) ** 2
        + 0.125 * float(np.sum(g[off] ** 2 / gaps[off] ** 2))
        - 0.5 * float(np.sum(g[off] * roots[off] / gaps[off]))
    )


def f_from_velocities(q, qdot) -> np.ndarray:
    """Constraint-surface spin f_ij = -(q_i - q_j) sqrt(qdot_i qdot_j).

    Velocities must be strictly positive; mixed signs are rejected rather than
    extended by an unstated sign convention.
    """
    q = symfun.as_configuration(q)
    qdot = finite_vector(qdot, q.size, "qdot")
    if np.any(qdot <= 0):
        raise NonPositiveVelocity("f construction needs qdot_i > 0")
    return -pairwise_differences(q) * np.sqrt(np.outer(qdot, qdot))


# ---------------------------------------------------------------------------
# exact goldfish solver
# ---------------------------------------------------------------------------

def goldfish_exact(state0: GoldfishState, t: float) -> np.ndarray:
    """Positions at time t from the straight flat-coordinate line.

    x(t) = x(0) + t b; positions are the polynomial roots of x(t), sorted
    ascending.  Raises ComplexRoots / RootCollision once the real,
    collision-free sector is left.
    """
    x0, b = symfun.flat_line(state0.q, state0.qdot)
    return symfun.roots_from_coords(x0 + t * b)


# ---------------------------------------------------------------------------
# systems seen by the integrator
# ---------------------------------------------------------------------------

class OdeSystem:
    """A system of n particles as the flat vector the integrator sees.

    The packed state starts with the n positions, which the integrator
    monitors for collisions.  Its states require finite entries and positions
    that form a configuration (``symfun.as_configuration``).
    """

    def __init__(self, n: int):
        self.n = n

    def pack(self, state) -> np.ndarray:
        raise NotImplementedError

    def unpack(self, y: np.ndarray):
        raise NotImplementedError

    def rhs(self, t: float, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def rejected_row(self, rows: np.ndarray) -> int | None:
        """Index of the first of ``rows`` (one packed state each) that ``unpack`` rejects, or None.

        The state checks of ``unpack`` for the whole grid at once.
        """
        accepted = np.isfinite(rows).all(axis=1)
        if self.n > 1:
            accepted &= (np.diff(rows[:, : self.n], axis=1) > symfun.COLLISION_TOL).all(axis=1)
        rejected = np.flatnonzero(~accepted)
        return int(rejected[0]) if rejected.size else None

    def reference(self, state0):
        """Values frozen at t = 0 that the diagnostics drift against."""
        raise NotImplementedError

    def grid_diagnostics(self, reference, rows: np.ndarray) -> dict[str, np.ndarray]:
        """Named residuals of each of ``rows`` (one packed state each) against ``reference``."""
        raise NotImplementedError

    def diagnostics(self, reference, state) -> dict[str, float]:
        """``grid_diagnostics`` of one state."""
        grid = self.grid_diagnostics(reference, self.pack(state)[None, :])
        return {key: float(values[0]) for key, values in grid.items()}


class PairFlowSystem(OdeSystem):
    """qddot_i = 2 qdot_i sum_{j != i} coupling(q_i - q_j) qdot_j as a first-order system.

    Subclasses supply ``coupling``, the pair function of the gaps
    (``pair_acceleration``), and the diagnostics.  ``unpack`` reads the
    first 2n entries, so a subclass may pack more after them
    (``reduction.FrameSystem``).
    """

    def pack(self, state: GoldfishState) -> np.ndarray:
        return np.concatenate([state.q, state.qdot])

    def unpack(self, y: np.ndarray) -> GoldfishState:
        return GoldfishState(y[: self.n], y[self.n : 2 * self.n])

    def rhs(self, t, y):
        q, qdot = y[: self.n], y[self.n :]
        return np.concatenate([qdot, pair_acceleration(q, qdot, self.coupling)])


class GoldfishSystem(PairFlowSystem):
    coupling = staticmethod(np.reciprocal)

    def reference(self, state0: GoldfishState):
        return symfun.flat_line(state0.q, state0.qdot)[1]

    def grid_diagnostics(self, reference, rows):
        n = self.n
        drift = np.abs(symfun.flat_line(rows[:, :n], rows[:, n : 2 * n])[1] - reference)
        return {"bn_drift": drift.max(axis=1), "momentum_drift": drift[:, 0]}


class EcmSystem(OdeSystem):
    def pack(self, state: ECMState) -> np.ndarray:
        return np.concatenate([state.q, state.p, state.f_upper])

    def unpack(self, y: np.ndarray) -> ECMState:
        n = self.n
        return ECMState(y[:n], y[n : 2 * n], y[2 * n :])

    def rhs(self, t, y):
        n = self.n
        upper = upper_indices(n)
        f = np.zeros((n, n))
        f[upper] = y[2 * n :]
        pdot, fdot = ecm_forces(y[:n], f - f.T)
        return np.concatenate([y[n : 2 * n], pdot, fdot[upper]])

    def reference(self, state0: ECMState):
        return ecm_hamiltonian(state0)

    def grid_diagnostics(self, reference, rows):
        from . import poisson

        energy, constraint = [], []
        for state in map(self.unpack, rows):
            energy.append(abs(ecm_hamiltonian(state) - reference))
            if np.all(state.p >= 0):
                g = poisson.g_constraints(state.q, state.p, state.f)
                constraint.append(float(np.linalg.norm(g)))
            else:
                constraint.append(float("nan"))
        return {"energy_drift": np.array(energy), "constraint_norm": np.array(constraint)}


class GeodesicSystem(OdeSystem):
    def pack(self, state) -> np.ndarray:
        return np.concatenate([state.q, state.pi])

    def unpack(self, y: np.ndarray):
        from .geometry import GeodesicState

        return GeodesicState(y[: self.n], y[self.n :])

    def rhs(self, t, y):
        from .geometry import geodesic_rhs

        qdot, pidot = geodesic_rhs(y[: self.n], y[self.n :])
        return np.concatenate([qdot, pidot])

    def reference(self, state0):
        from .geometry import geodesic_hamiltonian

        return geodesic_hamiltonian(state0)

    def grid_diagnostics(self, reference, rows):
        from .geometry import geodesic_hamiltonian

        drift = [abs(geodesic_hamiltonian(self.unpack(y)) - reference) for y in rows]
        return {"energy_drift": np.array(drift)}


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def integrate(
    system: OdeSystem,
    state0,
    t_span,
    config: IntegratorConfig | None = None,
    output_points: int = 101,
) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) run (``rk45.solve_ivp``) with dense output on a uniform grid.

    ``system`` packs ``state0`` and supplies the right-hand side, which runs
    unchecked on every trial stage.  A collision is decided from accepted
    steps only, and raises CollisionDetected:

    - the smallest signed gap between neighbours of the monitored positions,
      in their initial order, is watched continuously, and its crossing of
      ``config.collision_gap`` stops the run (the gap event);
    - the step size underflows while the closest neighbouring pair is
      closing, by one right-hand-side call at the last accepted state.

    A run that reaches the end of ``t_span`` with a grid row that fails the
    system's state check (``rejected_row``: a gap at or below
    ``symfun.COLLISION_TOL`` in a dense-output row, where no step end fired
    the gap event) raises CollisionDetected too, naming that row's time.
    Any other underflow raises StepSizeUnderflow.  Every error carries the grid rows reached, up to the
    first row that fails the state check (``partial``, None without rows),
    and the solver's last accepted t (``time``).  The output grid is checked
    once; the trajectory's states and diagnostics are evaluated at its
    points on first access.
    """
    config = config or IntegratorConfig()
    if output_points < 2:
        raise ValueError("need at least two output points")
    if np.isscalar(t_span):
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(t) for t in t_span)
    if not np.isfinite(t0) or not np.isfinite(t1) or t1 <= t0:
        raise ValueError("t_span must be finite with t1 > t0")

    y0 = system.pack(state0)
    grid = np.linspace(t0, t1, output_points)

    gap_event = None
    if system.n > 1:

        def gap_event(t, y):
            # signed adjacent gaps in the initial order: a crossing that one
            # step jumps over still shows as a negative gap
            q = y[: system.n]
            return float((q[1:] - q[:-1]).min()) - config.collision_gap

    sol = solve_ivp(
        system.rhs,
        (t0, t1),
        y0,
        rtol=config.rel_tol,
        atol=config.abs_tol,
        t_eval=grid,
        event=gap_event,
    )

    # one packed state per row; each row stays a strided view of the
    # solver's column, since a BLAS product in a diagnostic (the geodesic
    # J^-T pi) can round differently on a contiguous copy
    times, rows = sol.t, sol.y.T
    rejected = system.rejected_row(rows)
    if sol.status == 0 and rejected is None:
        return Trajectory(system, state0, times, rows)

    # near-failure states may violate state invariants; a partial trajectory
    # keeps the rows before the first one that does
    times, rows = times[:rejected], rows[:rejected]
    partial = Trajectory(system, state0, times, rows) if times.size else None
    if sol.status == 0:
        # a dense-output row between two step ends can fail the state check
        # while no step end fired the gap event
        raise CollisionDetected(
            f"pairwise gap at or below {symfun.COLLISION_TOL:g} at grid time {sol.t[rejected]:.6g}",
            partial=partial,
            time=sol.t_last,
        )
    if sol.status == 1:
        raise CollisionDetected(
            f"pairwise gap fell below {config.collision_gap:g} at t = {sol.t_last:.6g}",
            partial=partial,
            time=sol.t_last,
        )
    gap = _closing_gap(system, sol.t_last, sol.y_last)
    if gap is not None:
        raise CollisionDetected(
            f"step size underflow at t = {sol.t_last:.6g} with the closest pair closing "
            f"at gap {gap:.3e}",
            partial=partial,
            time=sol.t_last,
        )
    raise StepSizeUnderflow(sol.message, partial=partial, time=sol.t_last)


def _closing_gap(system: OdeSystem, t: float, y: np.ndarray) -> float | None:
    """The smallest adjacent gap of the monitored positions at y if that pair is closing, else None."""
    if system.n < 2:
        return None
    q = y[: system.n]
    gaps = q[1:] - q[:-1]
    k = int(gaps.argmin())
    rates = system.rhs(t, y)[: system.n]
    return float(gaps[k]) if rates[k + 1] - rates[k] < 0 else None
