"""Property-check harness cross-validating every solver against its oracles.

A check is a generator over its cases: from seeded random draws it yields one
``(label, residual)`` pair per case, where the label names the case's N and
its drawn inputs, every float in full precision.  Each check is registered
with a fixed tolerance and a mode, and one reduction judges them all: the
worst case is the first case with the largest residual, in draw order, and
its residual is the check's ``max_residual``.

- A "below" check passes iff its worst residual is <= its tolerance.
- A negative control (mode "above") passes iff its worst residual exceeds
  its threshold, that is iff the wrong variant is detected at some case.
- A NaN residual is the worst case, and it fails its check in either mode.

Checks are grouped into suites named after the modules they exercise;
``run_checks("all", seed)`` runs everything and returns results sorted by
check name, so reports are reproducible for a fixed seed.  Each result names
its worst case (index and label); ``scripts/verify_case.py`` lists every case
of one check at one seed.
"""
from __future__ import annotations

import math
import os
import time
import zlib
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from . import dynamics, geometry, hyperbolic, poisson, reduction, sampling, symfun

SUITES = ("symfun", "geometry", "poisson", "dynamics", "reduction", "hyperbolic")

#: Integration settings used by verification runs.
TIGHT = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)

#: One case of a check: its label (its text is str(label)) and its residual.
Case = tuple[object, float]


class CheckResult(NamedTuple):
    name: str
    max_residual: float
    tolerance: float
    passed: bool
    seconds: float
    worst_case: tuple[int, str]  # (index, label); not part of the report

    def to_dict(self) -> dict:
        """The report entry; a NaN ``max_residual`` is written as None (JSON null)."""
        return {
            "name": self.name,
            "max_residual": None if math.isnan(self.max_residual) else self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "seconds": self.seconds,
        }


class CheckSpec(NamedTuple):
    name: str
    suite: str
    tolerance: float
    mode: str  # "below": pass iff worst <= tolerance; "above": pass iff worst > tolerance
    fn: Callable[[np.random.Generator], Iterator[Case]]

    def cases(self, seed: int) -> Iterator[Case]:
        """The check's cases in draw order; its generator depends on (seed, name) only."""
        return self.fn(np.random.default_rng([seed, zlib.crc32(self.name.encode())]))

    def passes(self, worst: float) -> bool:
        """The verdict on the worst residual; a NaN fails in either mode."""
        return worst <= self.tolerance if self.mode == "below" else worst > self.tolerance


_REGISTRY: list[CheckSpec] = []


def _check(name: str, suite: str, tolerance: float, mode: str = "below"):
    def wrap(fn):
        _REGISTRY.append(CheckSpec(name, suite, float(tolerance), mode, fn))
        return fn

    return wrap


class _Label:
    """'n=3 q=[...] ...': a case's N and drawn inputs, each float in full precision.

    Formatted only when read with str(), so a check leaves its inputs as they are after the yield.
    """

    def __init__(self, n: int, **inputs):
        self.inputs = {"n": n, **inputs}

    def __str__(self) -> str:
        return " ".join(f"{key}={np.asarray(value).tolist()}" for key, value in self.inputs.items())


#: Exact rational value of each entry of a float or Fraction array, as an object array.
_fractions = np.frompyfunc(Fraction, 1, 1)


def _relative_error(error: Fraction, exact: Fraction) -> float:
    """error / |exact|, rounded once; 0 for no error and inf for an error on an exact zero."""
    if not error:
        return 0.0
    return float(error / abs(exact)) if exact else math.inf


# ---------------------------------------------------------------------------
# symfun
# ---------------------------------------------------------------------------

@_check("symfun_roundtrip", "symfun", 1e-10)
def _symfun_roundtrip(rng):
    """Backward error of the root recovery: e(roots(x)) against x, relative to max(1, |x|).

    The roots are as ill-conditioned as the polynomial: on clustered draws
    their forward error from ``np.roots`` exceeds any fixed tolerance, so the
    residual is how well the recovered roots reproduce the coordinates.
    """
    for _ in range(40):
        n = int(rng.integers(1, 9))
        q = sampling.random_configuration(rng, n, low=-3.0, high=3.0)
        x = symfun.elem_sym_coords(q)
        back = symfun.elem_sym_coords(symfun.roots_from_coords(x))
        yield _Label(n, q=q), float(np.abs(back - x).max() / max(1.0, np.abs(x).max()))


@_check("symfun_jacobian_det_agreement", "symfun", 1e-9)
def _symfun_det(rng):
    for _ in range(40):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n, low=-3.0, high=3.0)
        closed = symfun.jacobian_det(q)
        lu = float(np.linalg.det(symfun.jacobian(q)))
        yield _Label(n, q=q), abs(closed - lu) / max(1.0, abs(closed))


@_check("symfun_jacobian_inverse_identity", "symfun", 1e-10)
def _symfun_inverse(rng):
    """Each entry of the float J^{-1} against the closed form run on the Fractions of q.

    The residual is the largest relative error of an entry; an entry that
    is exactly zero must come out as 0.  The product J J^{-1} in doubles
    loses about cond(J) digits and is not the closed form's error; the exact
    identity J J^{-1} = I is a unit test of ``jacobian_inverse_unchecked``.
    """
    for _ in range(40):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n, low=-3.0, high=3.0)
        exact = symfun.jacobian_inverse_unchecked(_fractions(q))
        error = np.abs(_fractions(symfun.jacobian_inverse(q)) - exact)
        yield _Label(n, q=q), max(map(_relative_error, error.flat, exact.flat))


@_check("symfun_jacobian_finite_difference", "symfun", 1e-8)
def _symfun_jacobian_columns(rng):
    """Each column of J against an exact difference of the coordinates x = e(q).

    e(q) is affine in each q_j, so e(q | q_j := 1) - e(q | q_j := 0) is column
    j with no truncation error; ``symfun.flat_line`` evaluates it in Fractions
    of the same float draws, so the residual is the rounding of ``jacobian``
    alone.
    """
    for _ in range(10):
        n = int(rng.integers(2, 7))
        q = sampling.random_configuration(rng, n)
        jac = symfun.jacobian(q)
        # row j of corners[0] (of corners[1]) is the exact q with q_j := 1 (:= 0)
        corners = np.tile(_fractions(q), (2, n, 1))
        corners[0, range(n), range(n)] = 1
        corners[1, range(n), range(n)] = 0
        x = symfun.flat_line(corners, np.zeros_like(corners))[0]
        yield _Label(n, q=q), float(np.abs((x[0] - x[1]).T - _fractions(jac)).max())


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@_check("geometry_curvature_flat", "geometry", 1e-9)
def _curvature_flat(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        q = sampling.random_configuration(rng, n)
        yield _Label(n, q=q), float(np.abs(geometry.curvature(q)).max())


@_check("geometry_curvature_nonflat_control", "geometry", 0.1, mode="above")
def _curvature_nonflat(rng):
    q = np.array([0.0, 1.0, 3.0])
    yield _Label(3, q=q), float(np.abs(geometry.curvature(q, 1.0)).max())


@_check("geometry_curvature_crosscheck", "geometry", 1e-6)
def _curvature_crosscheck(rng):
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        diff = geometry.curvature(q, 1.0) - geometry.curvature_from_connection(q, 1.0)
        yield _Label(n, q=q), float(np.abs(diff).max())


@_check("geometry_christoffel_structure", "geometry", 0.0)
def _christoffel_structure(rng):
    """Gamma^i_jk is symmetric in (j, k) and vanishes unless i is j or k."""
    for _ in range(20):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n)
        gam = geometry.christoffel(q)
        yield _Label(n, q=q, part="symmetry"), float(np.abs(gam - gam.transpose(0, 2, 1)).max())
        mask = np.ones((n, n, n), dtype=bool)
        mask[range(n), range(n), :] = False
        mask[range(n), :, range(n)] = False
        yield _Label(n, q=q, part="sparsity"), float(np.abs(gam[mask]).max(initial=0.0))


@_check("geometry_metric_factorization", "geometry", 1e-12)
def _metric_factorization(rng):
    """The float metric against the exact J^T J of the Fractions of q, relative to max(1, |g|)."""
    for _ in range(20):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n)
        jac = symfun.jacobian_stack(_fractions(q)[None, :])[0]
        exact = jac.T @ jac
        error = np.abs(_fractions(geometry.metric(q)) - exact).max()
        yield _Label(n, q=q), float(error / max(1, np.abs(exact).max()))


@_check("geometry_inverse_metric_identity", "geometry", 1e-10)
def _inverse_metric_identity(rng):
    """g g^{-1} = I in doubles, on a well-conditioned family.

    The double-precision residual of this identity is floored by
    eps * cond(g), and cond(g) = cond(J)^2 reaches 1e10 on wide draws, so the
    1e-10 target is checked where the float format can resolve it; the
    companion check ``geometry_inverse_metric_closed_form`` covers the full
    harsh domain in exact arithmetic.
    """
    for _ in range(40):
        n = int(rng.integers(1, 7))
        q = sampling.random_configuration(rng, n, low=-1.1, high=1.1, min_gap=0.25)
        prod = geometry.metric(q) @ geometry.inverse_metric(q)
        yield _Label(n, q=q), float(np.abs(prod - np.eye(n)).max())


@_check("geometry_inverse_metric_closed_form", "geometry", 0.0)
def _inverse_metric_closed_form(rng):
    """Exact rational arithmetic: the closed-form inverse is exactly g^{-1}.

    Configurations are drawn on the eighth-integer grid over [-3, 3] so every
    quantity is a Fraction: g = J^T J from ``symfun.jacobian_stack`` and the
    closed form of ``geometry.inverse_metric`` both run on the Fractions.  The
    product g g^{-1} must equal the identity with zero residual, for N up to 6
    including poorly conditioned corners.
    """
    grid = [Fraction(k, 8) for k in range(-24, 25)]
    for _ in range(10):
        n = int(rng.integers(2, 7))
        picks = sorted(rng.choice(len(grid), size=n, replace=False))
        q = np.array([grid[k] for k in picks], dtype=object)
        jac = symfun.jacobian_stack(q[None, :])[0]
        prod = jac.T @ jac @ geometry._closed_form_inverse_metric(q)
        yield _Label(n, q=q.astype(float)), float(np.abs(prod - np.eye(n, dtype=object)).max())


@_check("geometry_hamiltonian_conservation", "geometry", 1e-9)
def _geodesic_energy(rng):
    for _ in range(3):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        state = geometry.GeodesicState(q, geometry.metric(q) @ qdot)
        traj = dynamics.integrate(dynamics.GeodesicSystem(n), state, 0.3, TIGHT, output_points=16)
        yield _Label(n, q=q, qdot=qdot), float(traj.diagnostics["energy_drift"].max())


@_check("geometry_goldfish_equivalence", "geometry", 1e-8)
def _geodesic_goldfish(rng):
    # gap floor 0.3: the metric-gradient contraction loses ~cond(g) digits to
    # cancellation, which eats the 1e-8 budget for tightly clustered draws
    for _ in range(20):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n, min_gap=0.3)
        pi = sampling.random_velocities(rng, n)
        qdot, pidot = geometry.geodesic_rhs(q, pi)
        dg = geometry.inverse_metric_gradient(q)
        ginv = geometry.inverse_metric(q)
        acc = np.einsum("kij,k,j->i", dg, qdot, pi) + ginv @ pidot
        target = dynamics.pair_acceleration(q, qdot, dynamics.GoldfishSystem.coupling)
        yield _Label(n, q=q, pi=pi), float(np.abs(acc - target).max())


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


def _pairs(n):
    return [(int(i), int(j)) for i, j in zip(*np.triu_indices(n, 1))]


@_check("poisson_antisymmetry", "poisson", 0.0)
def _antisymmetry(rng):
    for n in (2, 3, 4):
        ecm = poisson.ecm_structure(n)
        gold = poisson.goldfish_structure(n)
        for _ in range(334):
            point = _ecm_random_point(rng, n)
            mat = ecm.matrix(point)
            yield _Label(n, ecm=point), float(np.abs(mat + mat.T).max())
            point = _goldfish_random_point(rng, n)
            mat = gold.matrix(point)
            yield _Label(n, goldfish=point), float(np.abs(mat + mat.T).max())


@_check("poisson_jacobi_ecm", "poisson", 1e-8)
def _jacobi_ecm(rng):
    for n, count in ((2, 34), (3, 33), (4, 33)):
        structure = poisson.ecm_structure(n)
        for _ in range(count):
            point = _ecm_random_point(rng, n)
            yield _Label(n, point=point), poisson.jacobi_residual_all(structure, point)


@_check("poisson_jacobi_goldfish", "poisson", 1e-8)
def _jacobi_goldfish(rng):
    for n, count in ((2, 34), (3, 33), (4, 33)):
        structure = poisson.goldfish_structure(n)
        for _ in range(count):
            point = _goldfish_random_point(rng, n)
            yield _Label(n, point=point), poisson.jacobi_residual_all(structure, point)


@_check("poisson_flow_matches_rhs", "poisson", 1e-9)
def _flow_matches_rhs(rng):
    for _ in range(20):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        flow = poisson.hamiltonian_flow(structure, poisson.ecm_hamiltonian_gradient(point, n), point)
        direct = dynamics.EcmSystem(n).rhs(0.0, point)
        yield _Label(n, point=point), float(np.abs(flow - direct).max())


def _induced_goldfish_residual(rng, coefficient: float) -> Iterator[Case]:
    """Per draw, the residual between qddot induced by H = P^2/2 and the goldfish RHS."""
    for _ in range(100):
        n = int(rng.integers(2, 5))
        structure = poisson.goldfish_structure(n, coefficient=coefficient)
        point = _goldfish_random_point(rng, n)
        q, pi = point[:n], point[n:]
        flow = poisson.hamiltonian_flow(structure, poisson.goldfish_hamiltonian_gradient(point, n), point)
        qdot, pidot = flow[:n], flow[n:]
        momentum = float(np.sum(pi))
        # qdot_i = P pi_i, so qddot = Pdot pi + P pidot with Pdot = sum pidot
        acc = float(np.sum(pidot)) * pi + momentum * pidot
        target = dynamics.pair_acceleration(q, qdot, dynamics.GoldfishSystem.coupling)
        yield _Label(n, point=point), float(np.abs(acc - target).max())


@_check("poisson_goldfish_flow_factor2", "poisson", 1e-9)
def _goldfish_factor2(rng):
    return _induced_goldfish_residual(rng, poisson.GOLDFISH_COEFFICIENT)


@_check("poisson_goldfish_flow_factor1_control", "poisson", 0.1, mode="above")
def _goldfish_factor1(rng):
    return _induced_goldfish_residual(rng, 1.0)


@_check("poisson_constraint_weak_zero", "poisson", 1e-9)
def _constraint_weak_zero(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        q = sampling.random_configuration(rng, n)
        p = sampling.random_velocities(rng, n)
        point = poisson.ecm_point(q, p, dynamics.f_from_velocities(q, p))
        ham = poisson.ecm_hamiltonian_gradient(point, n)
        for i, j in _pairs(n):
            grad = poisson.g_constraint_gradient(point, n, i, j)
            yield _Label(n, q=q, p=p, pair=(i, j)), abs(poisson.bracket_eval(structure, grad, ham, point))


@_check("poisson_constraint_offsurface_control", "poisson", 1e-3, mode="above")
def _constraint_offsurface(rng):
    """{G_ij, H} is not identically zero off the constraint surface.

    A case is one draw's largest |{G_ij, H}|.  The bracket vanishes at some
    off-surface points (``poisson_constraint_offsurface_closed_form``), so
    only some case need exceed the threshold.
    """
    for _ in range(10):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        ham = poisson.ecm_hamiltonian_gradient(point, n)
        brackets = [poisson.bracket_eval(structure, poisson.g_constraint_gradient(point, n, i, j), ham, point)
                    for i, j in _pairs(n)]
        yield _Label(n, point=point), max(map(abs, brackets))


@_check("poisson_constraint_offsurface_closed_form", "poisson", 1e-9)
def _constraint_offsurface_closed_form(rng):
    """{G_01, H} at N = 2, off the constraint surface, against its closed form.

    With s = sqrt(p_0 p_1), d = q_0 - q_1 and G = G_01 = 2 (f_01 + d s),
    {G_01, H} = G (p_0 - p_1) (4 d s - G) / (2 s d^2).  It vanishes on three
    zero sets, not one: the constraint surface G = 0, equal momenta
    p_0 = p_1, and f_01 = d s.  The residual is relative to max(1, |closed|).
    """
    structure = poisson.ecm_structure(2)
    for _ in range(20):
        point = _ecm_random_point(rng, 2)
        q0, q1, p0, p1, f01 = point
        grads = poisson.g_constraint_gradient(point, 2, 0, 1), poisson.ecm_hamiltonian_gradient(point, 2)
        got = poisson.bracket_eval(structure, *grads, point)
        s, d = np.sqrt(p0 * p1), q0 - q1
        g = 2.0 * (f01 + d * s)
        closed = g * (p0 - p1) * (4.0 * d * s - g) / (2.0 * s * d**2)
        yield _Label(2, point=point), float(abs(got - closed) / max(1.0, abs(closed)))


@_check("poisson_constraint_algebra", "poisson", 1e-9)
def _constraint_algebra(rng):
    for _ in range(5):
        n = int(rng.integers(3, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        q, p, f = poisson.ecm_parts(point, n)
        gmat = poisson.g_constraints(q, p, f)
        pairs = _pairs(n)
        for i, j in pairs:
            for k, l in pairs:
                grads = [poisson.g_constraint_gradient(point, n, *pair) for pair in ((i, j), (k, l))]
                got = poisson.bracket_eval(structure, *grads, point)
                want = (
                    -(j == k) * gmat[i, l]
                    + (i == k) * gmat[j, l]
                    + (j == l) * gmat[i, k]
                    - (i == l) * gmat[j, k]
                )
                yield _Label(n, point=point, pairs=((i, j), (k, l))), abs(got - want)


@_check("poisson_constraint_momentum", "poisson", 1e-10)
def _constraint_momentum(rng):
    for _ in range(10):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        mom = poisson.momentum_gradient(point, n)
        for i, j in _pairs(n):
            grad = poisson.g_constraint_gradient(point, n, i, j)
            yield _Label(n, point=point, pair=(i, j)), abs(poisson.bracket_eval(structure, grad, mom, point))


@_check("poisson_vector_transform", "poisson", 1e-8)
def _vector_transform(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        structure = poisson.ecm_structure(n)
        point = _ecm_random_point(rng, n)
        q, p, _ = poisson.ecm_parts(point, n)
        chart = reduction.canonical_transform(q, p)
        for i, j in _pairs(n):
            grad = poisson.g_constraint_gradient(point, n, i, j)
            for k in range(n):
                dq, dp = poisson.reduced_chart_gradients(point, n, k)
                got_q = poisson.bracket_eval(structure, grad, dq, point)
                want_q = (i == k) * chart.Q[j] - (j == k) * chart.Q[i]
                got_p = poisson.bracket_eval(structure, grad, dp, point)
                want_p = (i == k) * chart.P[j] - (j == k) * chart.P[i]
                yield _Label(n, point=point, pair=(i, j), k=k, part="Q"), abs(got_q - want_q)
                yield _Label(n, point=point, pair=(i, j), k=k, part="P"), abs(got_p - want_p)


@_check("poisson_b_commutation", "poisson", 1e-6)
def _b_commutation(rng):
    # gap floor 0.3: the derivatives cancel to rounding, which grows with cond(g)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            q = sampling.random_configuration(rng, n, min_gap=0.3)
            pi = sampling.random_velocities(rng, n)
            # antisymmetric with a zero diagonal: its largest entry is that of a pair m < n
            yield _Label(n, q=q, pi=pi), float(np.abs(poisson.commutation_matrix(q, pi)).max())


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def _goldfish_cases(rng, per_n=4):
    for n in (2, 3, 4, 5, 6):
        for _ in range(per_n):
            q = sampling.random_configuration(rng, n, min_gap=0.5)
            qdot = sampling.random_velocities(rng, n)
            yield dynamics.GoldfishState(q, qdot)


@_check("dynamics_exact_vs_rk", "dynamics", 1e-8)
def _exact_vs_rk(rng):
    for state in _goldfish_cases(rng):
        traj = dynamics.integrate(dynamics.GoldfishSystem(state.n), state, 0.3, TIGHT, output_points=16)
        exact = np.vstack([dynamics.goldfish_exact(state, t) for t in traj.times])
        numeric = traj.rows[:, : state.n]
        yield _Label(state.n, q=state.q, qdot=state.qdot), float(np.abs(numeric - exact).max())


@_check("dynamics_bn_conservation", "dynamics", 1e-9)
def _bn_conservation(rng):
    for state in _goldfish_cases(rng):
        traj = dynamics.integrate(dynamics.GoldfishSystem(state.n), state, 0.3, TIGHT, output_points=16)
        yield _Label(state.n, q=state.q, qdot=state.qdot), float(traj.diagnostics["bn_drift"].max())


@_check("dynamics_energy_conservation", "dynamics", 1e-9)
def _energy_conservation(rng):
    for _ in range(6):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.3)
        p = sampling.random_velocities(rng, n)
        fu = sampling.random_spin_upper(rng, n)
        state = dynamics.ECMState(q, p, fu)
        traj = dynamics.integrate(dynamics.EcmSystem(n), state, 0.3, TIGHT, output_points=16)
        yield _Label(n, q=q, p=p, f=fu), float(traj.diagnostics["energy_drift"].max())


@_check("dynamics_reduction_tracking", "dynamics", 1e-8)
def _reduction_tracking(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        gstate = dynamics.GoldfishState(q, qdot)
        estate = dynamics.ECMState(q, qdot, dynamics.f_from_velocities(q, qdot))
        gtraj = dynamics.integrate(dynamics.GoldfishSystem(n), gstate, 0.3, TIGHT, output_points=16)
        etraj = dynamics.integrate(dynamics.EcmSystem(n), estate, 0.3, TIGHT, output_points=16)
        yield _Label(n, q=q, qdot=qdot), float(np.abs(gtraj.rows[:, :n] - etraj.rows[:, :n]).max())


@_check("dynamics_constraint_norm", "dynamics", 1e-8)
def _constraint_norm(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        state = dynamics.ECMState(q, qdot, dynamics.f_from_velocities(q, qdot))
        traj = dynamics.integrate(dynamics.EcmSystem(n), state, 0.3, TIGHT, output_points=16)
        yield _Label(n, q=q, qdot=qdot), float(traj.diagnostics["constraint_norm"].max())


@_check("dynamics_hamiltonian_forms", "dynamics", 1e-12)
def _hamiltonian_forms(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        p = sampling.random_velocities(rng, n)
        fu = sampling.random_spin_upper(rng, n)
        state = dynamics.ECMState(q, p, fu)
        h = dynamics.ecm_hamiltonian(state)
        yield _Label(n, q=q, p=p, f=fu), abs(h - dynamics.ecm_hamiltonian_g(state)) / max(1.0, abs(h))


@_check("dynamics_momentum_conservation", "dynamics", 1e-10)
def _momentum_conservation(rng):
    for _ in range(4):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        gstate = dynamics.GoldfishState(q, qdot)
        traj = dynamics.integrate(dynamics.GoldfishSystem(n), gstate, 0.3, TIGHT, output_points=16)
        yield _Label(n, q=q, qdot=qdot, system="goldfish"), float(traj.diagnostics["momentum_drift"].max())
        fu = sampling.random_spin_upper(rng, n)
        estate = dynamics.ECMState(q, qdot, fu)
        etraj = dynamics.integrate(dynamics.EcmSystem(n), estate, 0.3, TIGHT, output_points=16)
        p0 = float(np.sum(qdot))
        # summed along contiguous rows, each sum is np.sum of that row's momenta
        momenta = np.ascontiguousarray(etraj.rows[:, n : 2 * n])
        yield _Label(n, q=q, qdot=qdot, f=fu, system="ecm"), float(np.abs(momenta.sum(axis=1) - p0).max())


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

@_check("reduction_eigenvalue_goldfish", "reduction", 1e-9)
def _eigenvalue_goldfish(rng):
    times = np.linspace(0.0, 0.3, 16)
    for n in (2, 3, 4, 5, 6):
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        flow = reduction.rank1_velocity(q, qdot)
        state = dynamics.GoldfishState(q, qdot)
        for t in times:
            eigs = np.linalg.eigvalsh(reduction.free_flow(flow, t))
            residual = float(np.abs(np.sort(eigs) - dynamics.goldfish_exact(state, t)).max())
            yield _Label(n, q=q, qdot=qdot, t=t), residual


@_check("reduction_rank_one", "reduction", 1e-12)
def _rank_one(rng):
    """V(0) has N - 1 zero eigenvalues and one equal to the total momentum."""
    for _ in range(10):
        n = int(rng.integers(2, 7))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        eigs = np.sort(np.linalg.eigvalsh(reduction.rank1_velocity(q, qdot).v0))
        yield _Label(n, q=q, qdot=qdot, part="zero"), float(np.abs(eigs[:-1]).max())
        yield _Label(n, q=q, qdot=qdot, part="momentum"), abs(eigs[-1] - float(np.sum(qdot)))


@_check("reduction_frame_consistency", "reduction", 1e-10)
def _frame_consistency(rng):
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        flow = reduction.rank1_velocity(q, qdot)
        m = reduction.m_matrix(q, qdot)
        d = np.diag(q)
        xdot0 = np.diag(qdot) + m @ d - d @ m
        yield _Label(n, q=q, qdot=qdot), float(np.abs(xdot0 - flow.v0).max())


@_check("reduction_invariant_vectors", "reduction", 1e-7)
def _invariant_vectors(rng):
    """v(t) is constant and u(t) = u(0) + 2 t |v|^2 v(0) along the frame flow."""
    for _ in range(3):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        ft = reduction.frame_flow(q, qdot, 0.3, TIGHT, 31)
        u, v = reduction.invariant_vectors(ft)
        yield _Label(n, q=q, qdot=qdot, part="v"), float(np.abs(v - v[0]).max())
        vv = float(v[0] @ v[0])
        linear = u[0][None, :] + 2.0 * ft.times[:, None] * v[0][None, :] * vv
        yield _Label(n, q=q, qdot=qdot, part="u"), float(np.abs(u - linear).max())


@_check("reduction_qp_identity", "reduction", 1e-10)
def _qp_identity(rng):
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        q = sampling.random_configuration(rng, n)
        p = sampling.random_velocities(rng, n)
        chart = reduction.canonical_transform(q, p)
        qdot, pdot = reduction.qp_rhs(chart)
        lhs = qdot * chart.P - chart.Q * pdot
        yield _Label(n, q=q, p=p), float(np.abs(lhs - 2.0 * chart.P**4).max())


@_check("reduction_frame_vs_eigen", "reduction", 1e-6)
def _frame_vs_eigen(rng):
    for _ in range(2):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n, min_gap=0.5)
        qdot = sampling.random_velocities(rng, n)
        ft = reduction.frame_flow(q, qdot, 0.3, TIGHT, 31)
        et, _ = reduction.eigen_track(reduction.rank1_velocity(q, qdot), ft.times)
        for t, a, b in zip(ft.times, ft.frames, et.frames):
            signs = np.sign(np.sum(a * b, axis=0))
            signs[signs == 0] = 1.0
            yield _Label(n, q=q, qdot=qdot, t=t), float(np.abs(a - b * signs).max())


# ---------------------------------------------------------------------------
# hyperbolic
# ---------------------------------------------------------------------------

@_check("hyperbolic_rational_limit", "hyperbolic", 20.0)
def _rational_limit(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        q = sampling.random_configuration(rng, n)
        qdot = sampling.random_velocities(rng, n)
        target = dynamics.pair_acceleration(q, qdot, dynamics.GoldfishSystem.coupling)
        coarse, fine = (dynamics.pair_acceleration(q, qdot, hyperbolic.SinhSystem(n, a).coupling)
                        for a in (1e-2, 1e-3))
        ratio = float(np.abs(coarse - target).max() / np.abs(fine - target).max())
        yield _Label(n, q=q, qdot=qdot), abs(ratio - 100.0)


def _hyperbolic_case(rng, n):
    a_vec = sampling.random_configuration(rng, n, low=-1.5, high=1.5)
    c_vec = sampling.random_velocities(rng, n)
    return a_vec, c_vec


@_check("hyperbolic_isospectral", "hyperbolic", 1e-8)
def _isospectral(rng):
    a = 0.5
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        state = dynamics.GoldfishState(a_vec, c_vec)
        traj = dynamics.integrate(hyperbolic.SinhSystem(n, a), state, 0.3, TIGHT, output_points=16)
        yield _Label(n, a_vec=a_vec, c_vec=c_vec), float(traj.diagnostics["spectrum_drift"].max())


@_check("hyperbolic_matrix_vs_ode", "hyperbolic", 1e-7)
def _matrix_vs_ode(rng):
    a = 0.7
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=a, a_vec=a_vec, c_vec=c_vec)
        state = dynamics.GoldfishState(a_vec, c_vec)
        traj = dynamics.integrate(hyperbolic.SinhSystem(n, a), state, 0.3, TIGHT, output_points=16)
        for t, y in zip(traj.times, traj.rows):
            lam = hyperbolic.matrix_positions(data, t)
            yield _Label(n, a_vec=a_vec, c_vec=c_vec, t=t), float(np.abs(lam - y[:n]).max())


@_check("hyperbolic_exact_agreement", "hyperbolic", 1e-9)
def _exact_agreement(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        for t in np.linspace(0.0, 0.4, 9):
            _, q_s = hyperbolic.s_exact(data, t)
            q_z = hyperbolic.z_eigen_solution(data, t)
            yield _Label(n, a_vec=a_vec, c_vec=c_vec, t=t), float(np.abs(q_s - q_z).max())


@_check("hyperbolic_coth_residual", "hyperbolic", 1e-5)
def _coth_residual(rng):
    """Exact solutions satisfy the coth equation, by implicit differentiation.

    z = e^{2q} solves e(z) = s(t), so J zdot = sdot and
    J zddot = sddot - sum_{k,j} d_k J[:, j] zdot_k zdot_j; then qdot = zdot/(2z)
    and qddot = (zddot/z - 4 qdot^2)/2, with no step in t.
    """
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
            target = dynamics.pair_acceleration(q, vel, hyperbolic.CothSystem.coupling)
            yield _Label(n, a_vec=a_vec, c_vec=c_vec, t=t), float(np.abs(acc - target).max())


@_check("hyperbolic_sn_ode", "hyperbolic", 1e-8)
def _sn_ode(rng):
    """sddot = 2 P sdot along the RK-integrated coth flow, so sdot(t) = sdot(0) e^{2 P t}.

    sdot = J(z) zdot at z = e^{2q}, zdot = 2 z qdot (``symfun.flat_line``),
    relative to max(1, |sdot(0) e^{2 P t}|).
    """
    for _ in range(5):
        n = int(rng.integers(2, 6))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        p = float(np.sum(c_vec))
        state = dynamics.GoldfishState(a_vec, c_vec)
        traj = dynamics.integrate(hyperbolic.CothSystem(n), state, 0.4, TIGHT, output_points=5)
        z = np.exp(2.0 * traj.rows[:, :n])
        sdot = symfun.flat_line(z, 2.0 * z * traj.rows[:, n:])[1]
        for t, rate in zip(traj.times, sdot):
            expected = sdot[0] * np.exp(2.0 * p * t)
            residual = np.abs(rate - expected) / np.maximum(1.0, np.abs(expected))
            yield _Label(n, a_vec=a_vec, c_vec=c_vec, t=t), float(residual.max())


@_check("hyperbolic_conserved_combination", "hyperbolic", 1e-9)
def _conserved_combination(rng):
    for _ in range(3):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=0.8, a_vec=a_vec, c_vec=c_vec)
        k0 = hyperbolic.conserved_combination(data, 0.0)
        for t in np.linspace(0.0, 0.5, 11):
            residual = float(np.abs(hyperbolic.conserved_combination(data, t) - k0).max())
            yield _Label(n, a_vec=a_vec, c_vec=c_vec, t=t), residual


@_check("hyperbolic_root_function", "hyperbolic", 1e-8)
def _root_function(rng):
    for _ in range(5):
        n = int(rng.integers(2, 5))
        a_vec, c_vec = _hyperbolic_case(rng, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        for t in (0.2, 0.5):
            for qi in hyperbolic.z_eigen_solution(data, t):
                label = _Label(n, a_vec=a_vec, c_vec=c_vec, t=t, root=qi)
                yield label, abs(hyperbolic.root_function_f(data, t, float(qi)))


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def worst_case(cases: Iterable[Case]) -> tuple[int, str, float]:
    """(index, label, residual) of the first case with the largest residual, in draw order.

    A NaN residual ranks above every number, so the first NaN case is the
    worst.  A check that yields no case raises ValueError.
    """
    worst = None
    for index, (label, residual) in enumerate(cases):
        residual = float(residual)
        if worst is None or (not math.isnan(worst[2]) and (math.isnan(residual) or residual > worst[2])):
            worst = (index, label, residual)
    if worst is None:
        raise ValueError("the check yielded no case")
    return worst[0], str(worst[1]), worst[2]


def _run_spec(spec: CheckSpec, seed: int) -> CheckResult:
    started = time.perf_counter()
    index, label, value = worst_case(spec.cases(seed))
    elapsed = time.perf_counter() - started
    return CheckResult(
        name=spec.name,
        max_residual=value,
        tolerance=spec.tolerance,
        passed=spec.passes(value),
        seconds=elapsed,
        worst_case=(index, label),
    )


def lookup(name: str) -> CheckSpec:
    """The registered check called ``name``."""
    for spec in _REGISTRY:
        if spec.name == name:
            return spec
    raise ValueError(f"unknown check {name!r}")


def run_single(name: str, seed: int = 42) -> CheckResult:
    """Run one named check; the generator depends on (seed, name) only."""
    return _run_spec(lookup(name), seed)


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
