"""Property-check harness cross-validating every solver against its oracles.

Each check draws seeded random data, evaluates one residual and compares it
against a fixed tolerance.  Checks are grouped into suites named after the
modules they exercise; ``run_checks("all", seed)`` runs everything and returns
results sorted by check name, so reports are reproducible for a fixed seed.

Negative controls (mode "above") pass when the residual *exceeds* the
threshold; they pin down that a wrong variant is actually detected.
"""
from __future__ import annotations

import os
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import dynamics, geometry, hyperbolic, poisson, reduction, sampling, symfun

SUITES = ("symfun", "geometry", "poisson", "dynamics", "reduction", "hyperbolic")

#: Integration settings used by verification runs.
TIGHT = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    seconds: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class CheckSpec:
    name: str
    suite: str
    mode: str  # "below": pass iff value <= tolerance; "above": pass iff value > tolerance
    fn: Callable[[np.random.Generator], tuple[float, float]]


_REGISTRY: list[CheckSpec] = []


def _check(name: str, suite: str, mode: str = "below"):
    def wrap(fn):
        _REGISTRY.append(CheckSpec(name=name, suite=suite, mode=mode, fn=fn))
        return fn

    return wrap


#: Exact rational value of each entry of a float or Fraction array, as an object array.
_fractions = np.frompyfunc(Fraction, 1, 1)


# ---------------------------------------------------------------------------
# symfun
# ---------------------------------------------------------------------------

@_check("symfun_roundtrip", "symfun")
def _symfun_roundtrip(rng):
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 9))
        q = sampling.random_configuration(rng, n, low=-3.0, high=3.0)
        back = symfun.roots_from_coords(symfun.elem_sym_coords(q))
        worst = max(worst, float(np.abs(back - q).max() / max(1.0, np.abs(q).max())))
    return worst, 1e-10


@_check("symfun_jacobian_det_agreement", "symfun")
def _symfun_det(rng):
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n, low=-3.0, high=3.0)
        closed = symfun.jacobian_det(q)
        lu = float(np.linalg.det(symfun.jacobian(q)))
        worst = max(worst, abs(closed - lu) / max(1.0, abs(closed)))
    return worst, 1e-9


@_check("symfun_jacobian_inverse_identity", "symfun")
def _symfun_inverse(rng):
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n, low=-3.0, high=3.0)
        prod = symfun.jacobian(q) @ symfun.jacobian_inverse(q)
        worst = max(worst, float(np.abs(prod - np.eye(n)).max()))
    return worst, 1e-10


@_check("symfun_jacobian_finite_difference", "symfun")
def _symfun_jacobian_columns(rng):
    """Each column of J against an exact difference of the coordinates x = e(q).

    e(q) is affine in each q_j, so e(q | q_j := 1) - e(q | q_j := 0) is column
    j with no truncation error; ``symfun.flat_line`` evaluates it in Fractions
    of the same float draws, so the residual is the rounding of ``jacobian``
    alone.
    """
    worst = Fraction(0)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        q = sampling.random_configuration(rng, n)
        jac = symfun.jacobian(q)
        # row j of corners[0] (of corners[1]) is the exact q with q_j := 1 (:= 0)
        corners = np.tile(_fractions(q), (2, n, 1))
        corners[0, range(n), range(n)] = 1
        corners[1, range(n), range(n)] = 0
        x = symfun.flat_line(corners, np.zeros_like(corners))[0]
        worst = max(worst, np.abs((x[0] - x[1]).T - _fractions(jac)).max())
    return float(worst), 1e-8


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@_check("geometry_curvature_flat", "geometry")
def _curvature_flat(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        q = sampling.random_configuration(rng, n)
        worst = max(worst, float(np.abs(geometry.curvature(q)).max()))
    return worst, 1e-9


@_check("geometry_curvature_nonflat_control", "geometry", mode="above")
def _curvature_nonflat(rng):
    w = geometry.WFunction.scaled_rational(1.0)
    return float(np.abs(geometry.curvature(np.array([0.0, 1.0, 3.0]), w)).max()), 0.1


@_check("geometry_curvature_crosscheck", "geometry")
def _curvature_crosscheck(rng):
    worst = 0.0
    w = geometry.WFunction.scaled_rational(1.0)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        diff = geometry.curvature(q, w) - geometry.curvature_from_connection(q, w)
        worst = max(worst, float(np.abs(diff).max()))
    return worst, 1e-6


@_check("geometry_christoffel_structure", "geometry")
def _christoffel_structure(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n)
        gam = geometry.christoffel(q)
        worst = max(worst, float(np.abs(gam - gam.transpose(0, 2, 1)).max()))
        mask = np.ones((n, n, n), dtype=bool)
        for i in range(n):
            mask[i, i, :] = False
            mask[i, :, i] = False
        worst = max(worst, float(np.abs(gam[mask]).max()) if mask.any() else 0.0)
    return worst, 0.0


@_check("geometry_metric_factorization", "geometry")
def _metric_factorization(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n)
        jac = symfun.jacobian(q)
        worst = max(worst, float(np.abs(geometry.metric(q) - jac.T @ jac).max()))
    return worst, 1e-12


@_check("geometry_inverse_metric_identity", "geometry")
def _inverse_metric_identity(rng):
    """g g^{-1} = I in doubles, on a well-conditioned family.

    The double-precision residual of this identity is floored by
    eps * cond(g), and cond(g) = cond(J)^2 reaches 1e10 on wide draws, so the
    1e-10 target is checked where the float format can resolve it; the
    companion check ``geometry_inverse_metric_closed_form`` covers the full
    harsh domain in exact arithmetic.
    """
    worst = 0.0
    for _ in range(40):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n, low=-1.1, high=1.1, min_gap=0.25)
        prod = geometry.metric(q) @ geometry.inverse_metric(q)
        worst = max(worst, float(np.abs(prod - np.eye(n)).max()))
    return worst, 1e-10


@_check("geometry_inverse_metric_closed_form", "geometry")
def _inverse_metric_closed_form(rng):
    """Exact rational arithmetic: the closed-form inverse is exactly g^{-1}.

    Configurations are drawn on the eighth-integer grid over [-3, 3] so every
    quantity is a Fraction: g = J^T J from ``symfun.jacobian_stack`` and the
    closed form of ``geometry.inverse_metric`` both run on the Fractions.  The
    product g g^{-1} must equal the identity with zero residual, for N up to 6
    including poorly conditioned corners.
    """
    worst = Fraction(0)
    grid = [Fraction(k, 8) for k in range(-24, 25)]
    for _ in range(10):
        n = int(rng.integers(2, 7))
        picks = sorted(rng.choice(len(grid), size=n, replace=False))
        q = np.array([grid[k] for k in picks], dtype=object)
        jac = symfun.jacobian_stack(q[None, :])[0]
        prod = jac.T @ jac @ geometry._closed_form_inverse_metric(q)
        worst = max(worst, np.abs(prod - np.eye(n, dtype=object)).max())
    return float(worst), 0.0


@_check("geometry_hamiltonian_conservation", "geometry")
def _geodesic_energy(rng):
    worst = 0.0
    for _ in range(3):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        state = geometry.GeodesicState(q, geometry.metric(q) @ qdot)
        traj = dynamics.integrate(dynamics.GeodesicSystem(n), state, 0.3, TIGHT, output_points=16)
        worst = max(worst, float(traj.diagnostics["energy_drift"].max()))
    return worst, 1e-9


@_check("geometry_goldfish_equivalence", "geometry")
def _geodesic_goldfish(rng):
    # gap floor 0.3: the metric-gradient contraction loses ~cond(g) digits to
    # cancellation, which eats the 1e-8 budget for tightly clustered draws
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n, min_gap=0.3)
        pi = sampling.random_velocities(rng, n)
        state = geometry.GeodesicState(q, pi)
        qdot, pidot = geometry.geodesic_rhs(state)
        dg = geometry.inverse_metric_gradient(q)
        ginv = geometry.inverse_metric(q)
        acc = np.einsum("kij,k,j->i", dg, qdot, pi) + ginv @ pidot
        target = dynamics.goldfish_rhs(dynamics.GoldfishState(q, qdot))
        worst = max(worst, float(np.abs(acc - target).max()))
    return worst, 1e-8


# ---------------------------------------------------------------------------
# poisson
# ---------------------------------------------------------------------------

def _ecm_random_point(rng, n):
    q = sampling.random_configuration(rng, n)
    p = sampling.random_velocities(rng, n)
    fu = sampling.random_spin_upper(rng, n)
    return poisson.ecm_point(q, p, fu)


def _goldfish_random_point(rng, n):
    q = sampling.random_configuration(rng, n)
    pi = sampling.random_velocities(rng, n)
    return poisson.goldfish_point(q, pi)


@_check("poisson_antisymmetry", "poisson")
def _antisymmetry(rng):
    worst = 0.0
    for n in (2, 3, 4):
        ecm = poisson.ecm_structure(n)
        gold = poisson.goldfish_structure(n)
        for _ in range(334):
            mat = ecm.matrix(_ecm_random_point(rng, n))
            worst = max(worst, float(np.abs(mat + mat.T).max()))
            mat = gold.matrix(_goldfish_random_point(rng, n))
            worst = max(worst, float(np.abs(mat + mat.T).max()))
    return worst, 0.0


@_check("poisson_jacobi_ecm", "poisson")
def _jacobi_ecm(rng):
    worst = 0.0
    for n, count in ((2, 34), (3, 33), (4, 33)):
        structure = poisson.ecm_structure(n)
        for _ in range(count):
            worst = max(worst, poisson.jacobi_residual_all(structure, _ecm_random_point(rng, n)))
    return worst, 1e-8


@_check("poisson_jacobi_goldfish", "poisson")
def _jacobi_goldfish(rng):
    worst = 0.0
    for n, count in ((2, 34), (3, 33), (4, 33)):
        structure = poisson.goldfish_structure(n)
        for _ in range(count):
            worst = max(worst, poisson.jacobi_residual_all(structure, _goldfish_random_point(rng, n)))
    return worst, 1e-8


@_check("poisson_flow_matches_rhs", "poisson")
def _flow_matches_rhs(rng):
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        q, p, f = poisson.ecm_parts(point, n)
        flow = poisson.hamiltonian_flow(structure, poisson.ecm_hamiltonian_gradient(point, n), point)
        qdot, pdot, fdot = dynamics.ecm_rhs(dynamics.ECMState(q, p, f))
        direct = np.concatenate([qdot, pdot, fdot[np.triu_indices(n, 1)]])
        worst = max(worst, float(np.abs(flow - direct).max()))
    return worst, 1e-9


def _induced_goldfish_residual(rng, coefficient: float) -> float:
    """Residual between qddot induced by H = P^2/2 and the goldfish RHS."""
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        structure = poisson.goldfish_structure(n, coefficient=coefficient)
        point = _goldfish_random_point(rng, n)
        q, pi = point[:n], point[n:]
        flow = poisson.hamiltonian_flow(structure, poisson.goldfish_hamiltonian_gradient(point, n), point)
        qdot = flow[:n]
        pidot = flow[n:]
        momentum = float(np.sum(pi))
        # qdot_i = P pi_i, so qddot = Pdot pi + P pidot with Pdot = sum pidot
        acc = float(np.sum(pidot)) * pi + momentum * pidot
        target = dynamics.goldfish_rhs(dynamics.GoldfishState(q, qdot))
        worst = max(worst, float(np.abs(acc - target).max()))
    return worst


@_check("poisson_goldfish_flow_factor2", "poisson")
def _goldfish_factor2(rng):
    return _induced_goldfish_residual(rng, poisson.GOLDFISH_COEFFICIENT), 1e-9


@_check("poisson_goldfish_flow_factor1_control", "poisson", mode="above")
def _goldfish_factor1(rng):
    return _induced_goldfish_residual(rng, 1.0), 0.1


@_check("poisson_constraint_weak_zero", "poisson")
def _constraint_weak_zero(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        q = sampling.random_configuration(rng, n)
        p = sampling.random_velocities(rng, n)
        point = poisson.ecm_point(q, p, dynamics.f_from_velocities(q, p))
        ham = poisson.ecm_hamiltonian_gradient(point, n)
        for i in range(n):
            for j in range(i + 1, n):
                grad = poisson.g_constraint_gradient(point, n, i, j)
                worst = max(worst, abs(poisson.bracket_eval(structure, grad, ham, point)))
    return worst, 1e-9


@_check("poisson_constraint_offsurface_control", "poisson", mode="above")
def _constraint_offsurface(rng):
    smallest = np.inf
    for _ in range(10):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        ham = poisson.ecm_hamiltonian_gradient(point, n)
        largest = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                grad = poisson.g_constraint_gradient(point, n, i, j)
                largest = max(largest, abs(poisson.bracket_eval(structure, grad, ham, point)))
        smallest = min(smallest, largest)
    return float(smallest), 1e-3


@_check("poisson_constraint_algebra", "poisson")
def _constraint_algebra(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(3, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        q, p, f = poisson.ecm_parts(point, n)
        gmat = poisson.g_constraints(q, p, f)
        pairs = [(int(i), int(j)) for i, j in zip(*np.triu_indices(n, 1))]
        for i, j in pairs:
            for k, l in pairs:
                got = poisson.bracket_eval(
                    structure,
                    poisson.g_constraint_gradient(point, n, i, j),
                    poisson.g_constraint_gradient(point, n, k, l),
                    point,
                )
                want = (
                    -(j == k) * gmat[i, l]
                    + (i == k) * gmat[j, l]
                    + (j == l) * gmat[i, k]
                    - (i == l) * gmat[j, k]
                )
                worst = max(worst, abs(got - want))
    return worst, 1e-9


@_check("poisson_constraint_momentum", "poisson")
def _constraint_momentum(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        mom = poisson.momentum_gradient(point, n)
        for i in range(n):
            for j in range(i + 1, n):
                grad = poisson.g_constraint_gradient(point, n, i, j)
                worst = max(worst, abs(poisson.bracket_eval(structure, grad, mom, point)))
    return worst, 1e-10


@_check("poisson_vector_transform", "poisson")
def _vector_transform(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        q, p, _ = poisson.ecm_parts(point, n)
        chart = reduction.canonical_transform(q, p)
        for i in range(n):
            for j in range(i + 1, n):
                grad = poisson.g_constraint_gradient(point, n, i, j)
                for k in range(n):
                    dq, dp = poisson.reduced_chart_gradients(point, n, k)
                    got_q = poisson.bracket_eval(structure, grad, dq, point)
                    want_q = (i == k) * chart.Q[j] - (j == k) * chart.Q[i]
                    got_p = poisson.bracket_eval(structure, grad, dp, point)
                    want_p = (i == k) * chart.P[j] - (j == k) * chart.P[i]
                    worst = max(worst, abs(got_q - want_q), abs(got_p - want_p))
    return worst, 1e-8


@_check("poisson_b_commutation", "poisson")
def _b_commutation(rng):
    # gap floor 0.3: the derivatives cancel to rounding, which grows with cond(g)
    worst = 0.0
    for n in (2, 3, 4, 5):
        for _ in range(5):
            q = sampling.random_configuration(rng, n, min_gap=0.3)
            pi = sampling.random_velocities(rng, n)
            # antisymmetric with a zero diagonal: its largest entry is that of a pair m < n
            worst = max(worst, float(np.abs(poisson.commutation_matrix(q, pi)).max()))
    return worst, 1e-6


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def _goldfish_cases(rng, per_n=4):
    for n in (2, 3, 4, 5, 6):
        for _ in range(per_n):
            q = sampling.random_configuration(rng, n, min_gap=0.5)
            qdot = sampling.random_velocities(rng, n)
            yield dynamics.GoldfishState(q, qdot)


@_check("dynamics_exact_vs_rk", "dynamics")
def _exact_vs_rk(rng):
    worst = 0.0
    for state in _goldfish_cases(rng):
        traj = dynamics.integrate(dynamics.GoldfishSystem(state.n), state, 0.3, TIGHT, output_points=16)
        exact = np.vstack([dynamics.goldfish_exact(state, t) for t in traj.times])
        numeric = traj.rows[:, : state.n]
        worst = max(worst, float(np.abs(numeric - exact).max()))
    return worst, 1e-8


@_check("dynamics_bn_conservation", "dynamics")
def _bn_conservation(rng):
    worst = 0.0
    for state in _goldfish_cases(rng):
        traj = dynamics.integrate(dynamics.GoldfishSystem(state.n), state, 0.3, TIGHT, output_points=16)
        worst = max(worst, float(traj.diagnostics["bn_drift"].max()))
    return worst, 1e-9


@_check("dynamics_energy_conservation", "dynamics")
def _energy_conservation(rng):
    worst = 0.0
    for _ in range(6):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.3)
        p = sampling.random_velocities(rng, n)
        fu = sampling.random_spin_upper(rng, n)
        state = dynamics.ECMState(q, p, fu)
        traj = dynamics.integrate(dynamics.EcmSystem(n), state, 0.3, TIGHT, output_points=16)
        worst = max(worst, float(traj.diagnostics["energy_drift"].max()))
    return worst, 1e-9


@_check("dynamics_reduction_tracking", "dynamics")
def _reduction_tracking(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        gstate = dynamics.GoldfishState(q, qdot)
        estate = dynamics.ECMState(q, qdot, dynamics.f_from_velocities(q, qdot))
        gtraj = dynamics.integrate(dynamics.GoldfishSystem(n), gstate, 0.3, TIGHT, output_points=16)
        etraj = dynamics.integrate(dynamics.EcmSystem(n), estate, 0.3, TIGHT, output_points=16)
        worst = max(worst, float(np.abs(gtraj.rows[:, :n] - etraj.rows[:, :n]).max()))
    return worst, 1e-8


@_check("dynamics_constraint_norm", "dynamics")
def _constraint_norm(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        state = dynamics.ECMState(q, qdot, dynamics.f_from_velocities(q, qdot))
        traj = dynamics.integrate(dynamics.EcmSystem(n), state, 0.3, TIGHT, output_points=16)
        worst = max(worst, float(np.nanmax(traj.diagnostics["constraint_norm"])))
    return worst, 1e-8


@_check("dynamics_hamiltonian_forms", "dynamics")
def _hamiltonian_forms(rng):
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        p = sampling.random_velocities(rng, n)
        fu = sampling.random_spin_upper(rng, n)
        state = dynamics.ECMState(q, p, fu)
        h = dynamics.ecm_hamiltonian(state)
        worst = max(worst, abs(h - dynamics.ecm_hamiltonian_g(state)) / max(1.0, abs(h)))
    return worst, 1e-12


@_check("dynamics_momentum_conservation", "dynamics")
def _momentum_conservation(rng):
    worst = 0.0
    for _ in range(4):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        traj = dynamics.integrate(
            dynamics.GoldfishSystem(n), dynamics.GoldfishState(q, qdot), 0.3, TIGHT, output_points=16
        )
        worst = max(worst, float(traj.diagnostics["momentum_drift"].max()))
        fu = sampling.random_spin_upper(rng, n)
        etraj = dynamics.integrate(
            dynamics.EcmSystem(n), dynamics.ECMState(q, qdot, fu), 0.3, TIGHT, output_points=16
        )
        p0 = float(np.sum(qdot))
        # summed along contiguous rows, each sum is np.sum of that row's momenta
        momenta = np.ascontiguousarray(etraj.rows[:, n : 2 * n])
        worst = max(worst, float(np.abs(momenta.sum(axis=1) - p0).max()))
    return worst, 1e-10


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

@_check("reduction_eigenvalue_goldfish", "reduction")
def _eigenvalue_goldfish(rng):
    worst = 0.0
    times = np.linspace(0.0, 0.3, 16)
    for n in (2, 3, 4, 5, 6):
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        flow = reduction.rank1_velocity(q, qdot)
        state = dynamics.GoldfishState(q, qdot)
        for t in times:
            eigs = np.linalg.eigvalsh(reduction.free_flow(flow, t))
            worst = max(worst, float(np.abs(np.sort(eigs) - dynamics.goldfish_exact(state, t)).max()))
    return worst, 1e-9


@_check("reduction_rank_one", "reduction")
def _rank_one(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 7))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        eigs = np.sort(np.linalg.eigvalsh(reduction.rank1_velocity(q, qdot).v0))
        worst = max(worst, float(np.abs(eigs[:-1]).max()), abs(eigs[-1] - float(np.sum(qdot))))
    return worst, 1e-12


@_check("reduction_frame_consistency", "reduction")
def _frame_consistency(rng):
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        flow = reduction.rank1_velocity(q, qdot)
        m = reduction.m_matrix(q, qdot)
        d = np.diag(q)
        xdot0 = np.diag(qdot) + m @ d - d @ m
        worst = max(worst, float(np.abs(xdot0 - flow.v0).max()))
    return worst, 1e-10


@_check("reduction_invariant_vectors", "reduction")
def _invariant_vectors(rng):
    worst = 0.0
    grid = np.linspace(0.0, 0.3, 31)
    for _ in range(3):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        ft = reduction.frame_flow(q, qdot, grid, TIGHT)
        u, v = reduction.invariant_vectors(ft)
        worst = max(worst, float(np.abs(v - v[0]).max()))
        vv = float(v[0] @ v[0])
        linear = u[0][None, :] + 2.0 * grid[:, None] * v[0][None, :] * vv
        worst = max(worst, float(np.abs(u - linear).max()))
    return worst, 1e-7


@_check("reduction_qp_identity", "reduction")
def _qp_identity(rng):
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        p = sampling.random_velocities(rng, n)
        chart = reduction.canonical_transform(q, p)
        qdot, pdot = reduction.qp_rhs(chart)
        lhs = qdot * chart.P - chart.Q * pdot
        worst = max(worst, float(np.abs(lhs - 2.0 * chart.P**4).max()))
    return worst, 1e-10


@_check("reduction_frame_vs_eigen", "reduction")
def _frame_vs_eigen(rng):
    worst = 0.0
    grid = np.linspace(0.0, 0.3, 31)
    for _ in range(2):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        ft = reduction.frame_flow(q, qdot, grid, TIGHT)
        et, _ = reduction.eigen_track(reduction.rank1_velocity(q, qdot), grid)
        for a, b in zip(ft.frames, et.frames):
            signs = np.sign(np.sum(a * b, axis=0))
            signs[signs == 0] = 1.0
            worst = max(worst, float(np.abs(a - b * signs).max()))
    return worst, 1e-6


# ---------------------------------------------------------------------------
# hyperbolic
# ---------------------------------------------------------------------------

@_check("hyperbolic_rational_limit", "hyperbolic")
def _rational_limit(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        target = dynamics.goldfish_rhs(dynamics.GoldfishState(q, qdot))
        state = hyperbolic.HyperbolicState(q, qdot)
        r_coarse = float(np.abs(hyperbolic.hyperbolic_rhs(state, 1e-2) - target).max())
        r_fine = float(np.abs(hyperbolic.hyperbolic_rhs(state, 1e-3) - target).max())
        worst = max(worst, abs(r_coarse / r_fine - 100.0))
    return worst, 20.0


def _hyperbolic_case(rng, n):
    a_vec = sampling.random_configuration(rng, n, low=-1.5, high=1.5)
    c_vec = sampling.random_velocities(rng, n)
    return a_vec, c_vec


@_check("hyperbolic_isospectral", "hyperbolic")
def _isospectral(rng):
    worst = 0.0
    a = 0.5
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        state = hyperbolic.HyperbolicState(a_vec, c_vec)
        system = hyperbolic.SinhSystem(n, a)
        traj = dynamics.integrate(system, state, 0.3, TIGHT, output_points=16)
        worst = max(worst, float(traj.diagnostics["spectrum_drift"].max()))
    return worst, 1e-8


@_check("hyperbolic_matrix_vs_ode", "hyperbolic")
def _matrix_vs_ode(rng):
    worst = 0.0
    a = 0.7
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=a, a_vec=a_vec, c_vec=c_vec)
        state = hyperbolic.HyperbolicState(a_vec, c_vec)
        traj = dynamics.integrate(hyperbolic.SinhSystem(n, a), state, 0.3, TIGHT, output_points=16)
        for t, y in zip(traj.times, traj.rows):
            lam = hyperbolic.matrix_positions(data, t)
            worst = max(worst, float(np.abs(lam - y[:n]).max()))
    return worst, 1e-7


@_check("hyperbolic_exact_agreement", "hyperbolic")
def _exact_agreement(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        for t in np.linspace(0.0, 0.4, 9):
            _, q_s = hyperbolic.s_exact(data, t)
            q_z = hyperbolic.z_eigen_solution(data, t)
            worst = max(worst, float(np.abs(q_s - q_z).max()))
    return worst, 1e-9


@_check("hyperbolic_coth_residual", "hyperbolic")
def _coth_residual(rng):
    """Exact solutions satisfy the coth equation, by implicit differentiation.

    z = e^{2q} solves e(z) = s(t), so J zdot = sdot and
    J zddot = sddot - sum_{k,j} d_k J[:, j] zdot_k zdot_j; then qdot = zdot/(2z)
    and qddot = (zddot/z - 4 qdot^2)/2, with no step in t.
    """
    worst = 0.0
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        for t in (0.1, 0.25, 0.4):
            q = hyperbolic.z_eigen_solution(data, t)
            z = np.exp(2.0 * q)
            _, sdot, sddot = hyperbolic.s_derivatives(data, t)
            jac_inv = symfun.jacobian_inverse(z)
            zdot = jac_inv @ sdot
            quadratic = np.einsum("krj,k,j->r", symfun.jacobian_derivative(z), zdot, zdot)
            zddot = jac_inv @ (sddot - quadratic)
            vel = zdot / (2.0 * z)
            acc = 0.5 * (zddot / z - 4.0 * vel**2)
            target = hyperbolic.coth_rhs(hyperbolic.HyperbolicState(q, vel))
            worst = max(worst, float(np.abs(acc - target).max()))
    return worst, 1e-5


@_check("hyperbolic_sn_ode", "hyperbolic")
def _sn_ode(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        p = data.momentum
        for t in np.linspace(0.0, 0.4, 5):
            s, sdot, sddot = hyperbolic.s_derivatives(data, t)
            worst = max(worst, float(np.abs(sddot - 2.0 * p * sdot).max()))
    return worst, 1e-8


@_check("hyperbolic_conserved_combination", "hyperbolic")
def _conserved_combination(rng):
    worst = 0.0
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=0.8, a_vec=a_vec, c_vec=c_vec)
        k0 = hyperbolic.conserved_combination(data, 0.0)
        for t in np.linspace(0.0, 0.5, 11):
            worst = max(worst, float(np.abs(hyperbolic.conserved_combination(data, t) - k0).max()))
    return worst, 1e-9


@_check("hyperbolic_root_function", "hyperbolic")
def _root_function(rng):
    worst = 0.0
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        for t in (0.2, 0.5):
            for qi in hyperbolic.z_eigen_solution(data, t):
                worst = max(worst, abs(hyperbolic.root_function_f(data, t, float(qi))))
    return worst, 1e-8


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _run_spec(spec: CheckSpec, seed: int) -> CheckResult:
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    started = time.perf_counter()
    value, tolerance = spec.fn(rng)
    elapsed = time.perf_counter() - started
    passed = value <= tolerance if spec.mode == "below" else value > tolerance
    return CheckResult(
        name=spec.name,
        max_residual=float(value),
        tolerance=float(tolerance),
        passed=bool(passed),
        seconds=elapsed,
    )


def run_single(name: str, seed: int = 42) -> CheckResult:
    """Run one named check; the generator depends on (seed, name) only."""
    for spec in _REGISTRY:
        if spec.name == name:
            return _run_spec(spec, seed)
    raise ValueError(f"unknown check {name!r}")


def run_checks(selector: str = "all", seed: int = 42) -> list[CheckResult]:
    """Run one suite (or all) with per-check generators derived from the seed.

    The checks share no state, so they run in forked worker processes, one per
    CPU this process may use.  Results come back in name order whatever the
    number of workers; only their ``seconds`` (each check's own wall time in
    its worker) depend on it.  An exception raised by a check reaches the
    caller with its type and message.
    """
    if selector != "all" and selector not in SUITES:
        raise ValueError(f"unknown suite {selector!r}")
    selected = [spec for spec in _REGISTRY if selector == "all" or spec.suite == selector]
    specs = sorted(selected, key=lambda s: s.name)
    # sched_getaffinity (Linux) counts the CPUs this process may run on;
    # where it is missing, the checks run in this process
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(specs))
    if workers <= 1:
        return [_run_spec(spec, seed) for spec in specs]
    # imported here so that simulate and compare never load them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: spawned workers each start an interpreter and import
    # the package again, which cost `verify all` 0.35 s of wall time and 5 MB
    # of peak RSS on 2 CPUs
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return list(pool.map(run_single, [s.name for s in specs], [seed] * len(specs)))
