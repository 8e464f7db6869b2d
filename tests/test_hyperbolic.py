import re

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from goldfishlab import dynamics, hyperbolic, secular, symfun
from goldfishlab.errors import (
    GoldfishLabError,
    NonPositiveEigenvalue,
    NonPositiveRoot,
    NonPositiveVelocity,
    NonRealSpectrum,
    PoleProximity,
    SecularOutOfDomain,
)

TIGHT = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)

#: Standard two-particle data used across the exact-solver tests.
PAIR = hyperbolic.HyperbolicData(a=1.0, a_vec=np.array([0.0, 1.0]), c_vec=np.array([1.0, 1.0]))


def _sinh_acceleration(q, qdot, a):
    return dynamics.pair_acceleration(np.asarray(q), np.asarray(qdot), hyperbolic.SinhSystem(len(q), a).coupling)


def _coth_acceleration(q, qdot):
    return dynamics.pair_acceleration(np.asarray(q), np.asarray(qdot), hyperbolic.CothSystem.coupling)


class TestRightHandSides:
    def test_sinh_hand_value(self):
        expected = 2.0 / np.sinh(1.0)
        assert_allclose(_sinh_acceleration([0.0, 1.0], [1.0, 1.0], 0.5), [-expected, expected])

    def test_coth_hand_value(self):
        expected = 2.0 / np.tanh(1.0)
        assert_allclose(_coth_acceleration([0.0, 1.0], [1.0, 1.0]), [-expected, expected])

    def test_static_states(self):
        assert np.all(_sinh_acceleration([0.0, 1.0], [0.0, 0.0], 0.5) == 0.0)
        assert np.all(_coth_acceleration([0.0, 1.0], [0.0, 0.0]) == 0.0)
        assert np.all(_coth_acceleration([0.3], [1.2]) == 0.0)

    def test_rational_limit_quadratic_in_a(self):
        q, qdot = np.array([-0.4, 0.5, 1.3]), np.array([0.9, 1.2, 0.7])
        target = dynamics.pair_acceleration(q, qdot, dynamics.GoldfishSystem.coupling)
        coarse = np.abs(_sinh_acceleration(q, qdot, 1e-2) - target).max()
        fine = np.abs(_sinh_acceleration(q, qdot, 1e-3) - target).max()
        assert 80.0 < coarse / fine < 120.0

    def test_zero_deformation_rejected(self):
        with pytest.raises(ValueError):
            hyperbolic.SinhSystem(2, 0.0)


class TestLaxPair:
    def test_pair_values(self):
        lax, m = hyperbolic.lax_pair(np.array([0.0, 1.0]), np.array([1.0, 1.0]), 0.5)
        assert_allclose(m[0, 1], 1.0 / np.sinh(1.0))
        assert_allclose(lax, [[1.0, 1.0], [1.0, 1.0]])

    def test_single_particle(self):
        lax, m = hyperbolic.lax_pair(np.array([0.3]), np.array([2.0]), 0.5)
        assert_allclose(lax, [[2.0]])
        assert_allclose(m, [[0.0]])

    def test_overflowing_sinh_leaves_the_pair_finite(self):
        # 2a |gap| is 800 or more except between the last two particles (100):
        # the overflowed entries of L are sqrt(qdot_i qdot_j), M's are 0
        qdot = np.array([1.0, 2.0, 0.5])
        with np.errstate(all="raise"):
            lax, m = hyperbolic.lax_pair(np.array([0.0, 4.0, 4.5]), qdot, 100.0)
        roots = np.sqrt(np.outer(qdot, qdot))
        assert np.array_equal(lax[0], roots[0]) and np.array_equal(lax[:, 0], roots[:, 0])
        assert np.all(m[0, 1:] == 0.0) and np.all(m[1:, 0] == 0.0)
        assert_allclose(lax, roots, rtol=1e-15)

    def test_requires_positive_velocities(self):
        with pytest.raises(NonPositiveVelocity):
            hyperbolic.lax_pair(np.array([0.0, 1.0]), np.array([1.0, -1.0]), 0.5)

    def test_spectrum_conserved_along_flow(self):
        a = 0.5
        state = dynamics.GoldfishState([-0.4, 0.3, 1.1], [0.9, 1.2, 0.7])
        traj = dynamics.integrate(hyperbolic.SinhSystem(3, a), state, 0.3, TIGHT, 16)
        assert traj.diagnostics["spectrum_drift"].max() < 1e-8
        assert traj.diagnostics["momentum_drift"].max() < 1e-11

    def test_lax_equation_residual(self):
        # central difference of L along the flow should match [L, M]
        a = 0.5
        state = dynamics.GoldfishState([-0.4, 0.3, 1.1], [0.9, 1.2, 0.7])
        h = 1e-4
        traj = dynamics.integrate(hyperbolic.SinhSystem(3, a), state, (0.2 - h, 0.2 + h), TIGHT, 3)
        lm, _ = hyperbolic.lax_pair(traj.states[0].q, traj.states[0].qdot, a)
        l0, m0 = hyperbolic.lax_pair(traj.states[1].q, traj.states[1].qdot, a)
        lp, _ = hyperbolic.lax_pair(traj.states[2].q, traj.states[2].qdot, a)
        ldot = (lp - lm) / (2.0 * h)
        assert np.abs(ldot - (l0 @ m0 - m0 @ l0)).max() < 1e-6


class TestMatrixGeodesic:
    def test_initial_velocity_entry(self):
        v0 = hyperbolic.initial_velocity_matrix(PAIR)
        assert_allclose(v0[0, 1], 1.0 / np.cosh(1.0))

    def test_initial_matrix(self):
        assert_allclose(hyperbolic.matrix_geodesic(PAIR, 0.0), np.diag(np.exp([0.0, 2.0])))

    def test_positions_are_the_log_eigenvalues(self):
        data = hyperbolic.HyperbolicData(
            a=0.7, a_vec=np.array([-0.4, 0.3, 1.1]), c_vec=np.array([0.9, 1.2, 0.7])
        )
        for t in (0.0, 0.15, 0.3):
            eigs = np.sort(np.linalg.eigvalsh(hyperbolic.matrix_geodesic(data, t)))
            assert np.array_equal(hyperbolic.matrix_positions(data, t), np.log(eigs) / (2.0 * data.a))

    def test_conserved_combination_constant(self):
        data = hyperbolic.HyperbolicData(
            a=0.8, a_vec=np.array([-0.4, 0.3, 1.1]), c_vec=np.array([0.9, 1.2, 0.7])
        )
        k0 = hyperbolic.conserved_combination(data, 0.0)
        for t in np.linspace(0.0, 0.5, 6):
            assert np.abs(hyperbolic.conserved_combination(data, t) - k0).max() < 1e-9

    def test_combination_conjugate_to_lax_matrix(self):
        data = hyperbolic.HyperbolicData(
            a=0.7, a_vec=np.array([-0.4, 0.3, 1.1]), c_vec=np.array([0.9, 1.2, 0.7])
        )
        lax0, _ = hyperbolic.lax_pair(data.a_vec, data.c_vec, data.a)
        for t in (0.0, 0.2, 0.4):
            conjugated = hyperbolic.conserved_combination(data, t) / (4.0 * data.a)
            assert_allclose(
                np.sort(np.linalg.eigvals(conjugated).real),
                np.sort(np.linalg.eigvalsh(lax0)),
                atol=1e-9,
            )

    def test_eigenvalues_match_integrated_flow(self):
        a = 0.7
        data = hyperbolic.HyperbolicData(
            a=a, a_vec=np.array([-0.4, 0.3, 1.1]), c_vec=np.array([0.9, 1.2, 0.7])
        )
        state = dynamics.GoldfishState(data.a_vec, data.c_vec)
        traj = dynamics.integrate(hyperbolic.SinhSystem(3, a), state, 0.3, TIGHT, 11)
        for t, s in zip(traj.times, traj.states):
            eigs = np.sort(np.linalg.eigvalsh(hyperbolic.matrix_geodesic(data, t)))
            assert np.abs(np.log(eigs) / (2.0 * a) - s.q).max() < 1e-7

    def test_requires_positive_c(self):
        bad = hyperbolic.HyperbolicData(a=1.0, a_vec=np.array([0.0, 1.0]), c_vec=np.array([1.0, -1.0]))
        with pytest.raises(NonPositiveVelocity):
            hyperbolic.matrix_geodesic(bad, 0.1)


class TestExactSolvers:
    def test_single_particle_is_free(self):
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=np.array([0.0]), c_vec=np.array([1.0]))
        for t in (0.0, 0.5, 1.0):
            assert_allclose(hyperbolic.z_eigen_solution(data, t), [t], atol=1e-12)

    def test_time_zero_returns_initial_positions(self):
        assert_allclose(hyperbolic.z_eigen_solution(PAIR, 0.0), [0.0, 1.0], atol=1e-12)

    def test_pair_value_against_quadratic_oracle(self):
        # frozen from the closed 2x2 form Z = diag(1, e^2)(I + beta ones),
        # beta = (e^{4t} - 1)/2, eigenvalues by the quadratic formula
        q = hyperbolic.z_eigen_solution(PAIR, 0.5)
        assert_allclose(q, [0.24331299670174802, 1.75668700329825198], rtol=1e-12)
        assert_allclose(q.sum(), 2.0, atol=1e-12)

    def test_total_position_grows_linearly(self):
        for t in (0.1, 0.3, 0.7):
            q = hyperbolic.z_eigen_solution(PAIR, t)
            assert_allclose(q.sum(), 1.0 + 2.0 * t, atol=1e-10)

    def test_s_route_matches_z_route(self):
        data = hyperbolic.HyperbolicData(
            a=1.0, a_vec=np.array([-0.8, 0.1, 0.9]), c_vec=np.array([1.1, 0.6, 1.4])
        )
        for t in (0.0, 0.2, 0.5):
            _, q_s = hyperbolic.s_exact(data, t)
            assert np.abs(q_s - hyperbolic.z_eigen_solution(data, t)).max() < 1e-9

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_trajectory_equals_pointwise_solver(self, n):
        # a negative velocity takes the Aberth solve: its row at t = 0 is the
        # poles, and after it the pointwise oracles differ from it by their
        # own error, at most 3.1e-9 for the Vieta roots of s_exact and 2.9e-13
        # for the eigenvalues of Z in z_eigen at n = 16 (the solve is within
        # 1.2e-16 of 60-digit roots there)
        rng = np.random.default_rng(n)
        a_vec = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.02, 0.02, n)
        c_vec = rng.uniform(0.5, 1.5, n)
        c_vec[0] = -0.1 * c_vec[0]
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        times = np.linspace(0.0, 0.3, 21)
        trajectory = hyperbolic.exact_trajectory(data, times)
        assert np.array_equal(trajectory[0], a_vec)
        for pointwise, bound in (
            (lambda t: hyperbolic.s_exact(data, t)[1], 5e-9),
            (lambda t: hyperbolic.z_eigen_solution(data, t), 1e-12),
        ):
            expected = np.vstack([pointwise(t) for t in times[1:]])
            assert np.abs(trajectory[1:] - expected).max() <= bound

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_secular_trajectories_match_pointwise_solvers(self, n):
        rng = np.random.default_rng(n)
        a_vec = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.02, 0.02, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=rng.uniform(0.5, 1.5, n))
        times = np.linspace(0.0, 0.3, 21)
        trajectory = hyperbolic.exact_trajectory(data, times)
        for pointwise in (
            lambda t: hyperbolic.s_exact(data, t)[1],
            lambda t: hyperbolic.z_eigen_solution(data, t),
        ):
            expected = np.vstack([pointwise(t) for t in times])
            assert np.abs(trajectory - expected).max() <= 1e-12

    def test_top_symmetric_function_growth(self):
        # s_N(t) = e^{2 sum a} e^{2 P t} exactly, so b_N = P s_N(0)
        s_t, _ = hyperbolic.s_exact(PAIR, 0.5)
        assert_allclose(s_t[-1], np.exp(4.0), rtol=1e-12)
        s0, b = hyperbolic.s_initial(PAIR)
        assert_allclose(b[-1], PAIR.momentum * s0[-1], rtol=1e-12)

    def test_ode_residual_of_closed_form(self):
        data = hyperbolic.HyperbolicData(
            a=1.0, a_vec=np.array([-0.8, 0.1, 0.9]), c_vec=np.array([1.1, 0.6, 1.4])
        )
        for t in (0.0, 0.3, 0.6):
            _, sdot, sddot = hyperbolic.s_derivatives(data, t)
            assert np.abs(sddot - 2.0 * data.momentum * sdot).max() < 1e-8

    def test_solutions_satisfy_coth_equation(self):
        h = 1e-3
        samples = [hyperbolic.z_eigen_solution(PAIR, 0.5 + k * h) for k in (-2, -1, 0, 1, 2)]
        acc_fd = (
            -samples[0] + 16 * samples[1] - 30 * samples[2] + 16 * samples[3] - samples[4]
        ) / (12 * h**2)
        # velocities from the analytic symmetric-function rates via the chain rule
        z = np.exp(2.0 * samples[2])
        _, sdot, _ = hyperbolic.s_derivatives(PAIR, 0.5)
        vel = (symfun.jacobian_inverse(z) @ sdot) / (2.0 * z)
        acc = _coth_acceleration(samples[2], vel)
        assert np.abs(acc_fd - acc).max() < 1e-7

    def test_non_real_spectrum_raises(self):
        bad = hyperbolic.HyperbolicData(
            a=1.0, a_vec=np.array([-1.1, -0.33, 0.66]), c_vec=np.array([0.1, -0.76, -0.06])
        )
        with pytest.raises(NonRealSpectrum):
            hyperbolic.z_eigen_solution(bad, 1.0)

    def test_nonpositive_spectrum_raises(self):
        bad = hyperbolic.HyperbolicData(
            a=1.0, a_vec=np.array([1.1, 1.45]), c_vec=np.array([1.8, -1.4])
        )
        with pytest.raises(NonPositiveEigenvalue):
            hyperbolic.z_eigen_solution(bad, 2.0)
        with pytest.raises(NonPositiveRoot):
            hyperbolic.s_exact(bad, 2.0)

    def test_zero_momentum_answers(self):
        # at P = 0 the clock is gamma = 2t: the route and both pointwise
        # oracles answer, on the integrated coth flow
        data = hyperbolic.HyperbolicData(
            a=1.0, a_vec=np.array([0.0, 1.0]), c_vec=np.array([1.0, -1.0])
        )
        traj = dynamics.integrate(hyperbolic.CothSystem(2), dynamics.GoldfishState(data.a_vec, data.c_vec),
                                  0.1, TIGHT, 5)
        q_rk = traj.rows[:, :2]
        assert np.abs(hyperbolic.exact_trajectory(data, traj.times) - q_rk).max() < 1e-10
        assert np.abs(hyperbolic.s_exact(data, 0.1)[1] - hyperbolic.z_eigen_solution(data, 0.1)).max() < 1e-12

    @pytest.mark.parametrize("c_vec", [[1.0, -1.0], [0.7, -1.1, 0.4]])
    def test_positions_continuous_at_zero_momentum(self, c_vec):
        # P = +-1e-9 moves gamma by about 2 P t^2 from its P = 0 limit 2t
        a_vec = np.array([0.0, 1.0] if len(c_vec) == 2 else [-0.4, 0.3, 1.2])
        times = np.linspace(0.0, 0.1, 5)
        base = np.array(c_vec)
        base[-1] -= base.sum()
        assert hyperbolic.HyperbolicData(1.0, a_vec, base).momentum == 0.0
        at_zero = hyperbolic.exact_trajectory(hyperbolic.HyperbolicData(1.0, a_vec, base), times)
        for p in (1e-9, -1e-9):
            shifted = base + p / base.size
            q = hyperbolic.exact_trajectory(hyperbolic.HyperbolicData(1.0, a_vec, shifted), times)
            assert np.abs(q - at_zero).max() < 1e-9

    def test_clock_limit(self):
        assert hyperbolic.clock(0.0, 0.25) == 0.5
        for p in (1e-9, -1e-9):
            assert abs(hyperbolic.clock(p, 0.25) - 0.5) < 1e-9
        assert_allclose(hyperbolic.clock(2.0, 0.25), np.expm1(1.0) / 2.0, rtol=1e-15)


def _mp_line(values, rates, gamma):
    """(x, roots): x = e(values) + gamma J(values) rates and the real parts of the
    roots of its Vieta polynomial, ascending, in the working precision."""

    def elementary(entries):
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * len(entries)
        for v in entries:
            for k in range(len(entries), 0, -1):
                e[k] += v * e[k - 1]
        return e

    n = len(values)
    x = elementary(values)[1:]
    for j in range(n):
        rest = elementary(values[:j] + values[j + 1 :])
        for k in range(n):
            x[k] += gamma * rates[j] * rest[k]
    roots = mpmath.polyroots([(-1) ** k * v for k, v in enumerate([mpmath.mpf(1)] + x)], maxsteps=400,
                             extraprec=400)
    return x, sorted(mpmath.re(r) for r in roots)


def _exact_line(a_vec, c_vec, t):
    """s(t) = e(z) + gamma(t) J(z) c z at z = e^{2 a}, and q(t), in 60-digit arithmetic."""
    with mpmath.workdps(60):
        z = [mpmath.exp(2 * mpmath.mpf(float(a))) for a in a_vec]
        c = [mpmath.mpf(float(x)) for x in c_vec]
        p, t = mpmath.fsum(c), mpmath.mpf(float(t))
        gamma = 2 * t if p == 0 else mpmath.expm1(2 * p * t) / p
        s, roots = _mp_line(z, [ci * zi for ci, zi in zip(c, z)], gamma)
        return s, np.array([float(mpmath.log(r) / 2) for r in roots])


def _exact_goldfish(q0, qdot0, t):
    """The goldfish positions at time t: the roots of x(0) + t b, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        _, roots = _mp_line([mpmath.mpf(float(q)) for q in q0], [mpmath.mpf(float(v)) for v in qdot0],
                            mpmath.mpf(float(t)))
        return np.array([float(r) for r in roots])


def test_mixed_sign_s_exact_certified_by_mpmath():
    # the line s(0) + gamma b in doubles, to a few ulps of each s_n(t) > 0
    rng = np.random.default_rng(3)
    points = 0
    for _ in range(12):
        n = int(rng.integers(2, 6))
        a_vec = np.sort(rng.uniform(-1.5, 1.5, n))
        if np.diff(a_vec).min() < 0.2:
            continue
        c_vec = rng.uniform(-1.5, 1.5, n)
        c_vec[0] = -abs(c_vec[0])
        data = hyperbolic.HyperbolicData(1.0, a_vec, c_vec)
        for t in np.linspace(0.0, 0.3, 7):
            try:
                s_t, q = hyperbolic.s_exact(data, t)
            except GoldfishLabError:
                continue  # past the trajectory's real, collision-free sector
            exact_s, exact_q = _exact_line(a_vec, c_vec, t)
            for computed, value in zip(s_t, exact_s):
                assert abs(mpmath.mpf(float(computed)) - value) <= 2e-15 * value
            assert np.abs(q - exact_q).max() <= 1e-13
            points += 1
    assert points >= 30


@pytest.mark.parametrize("n", range(2, 13))
def test_mixed_sign_routes_through_the_entry_point_certified_by_mpmath(n):
    # the Aberth solve of secular.positions, each root carried from its
    # nearer pole: goldfish flat_exact and the coth route against the roots
    # of the 60-digit flat line, at each time where the trajectory is still
    # real and collision-free
    rng = np.random.default_rng(n)
    worst, points = {}, 0
    for _ in range(3):
        base = np.linspace(-1.5, 1.5, n) + rng.uniform(-0.3, 0.3, n) * 3.0 / n
        velocities = rng.uniform(-1.5, 1.5, n)
        velocities[0] = -abs(velocities[0])
        data = hyperbolic.HyperbolicData(1.0, base, velocities)
        for t in np.linspace(0.05, 0.3, 6):
            answers = {}
            try:
                origin, offset = secular.positions(base, velocities, [t])
                answers["flat_exact"] = (base[origin] + offset)[0], _exact_goldfish(base, velocities, t)
            except GoldfishLabError:
                pass
            try:
                answers["coth"] = hyperbolic.exact_trajectory(data, [t])[0], _exact_line(base, velocities, t)[1]
            except GoldfishLabError:
                pass
            for route, (q, exact) in answers.items():
                worst[route] = max(worst.get(route, 0.0), float(np.abs(q - exact).max()))
                points += 1
    assert max(worst.values()) <= 1e-13
    assert points >= 8


def _coth(a_vec, c_vec):
    return hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)


#: (q0 or a_vec, qdot0 or c_vec) of each kind of data; the geodesic configs
#: take p0 = J^T J qdot0, whose velocities are these qdot0
BRANCH_DATA = {
    "positive": ([0.0, 1.0], [1.0, 1.0]),
    "mixed sign": ([0.0, 1.0, 2.5], [1.0, -0.5, 0.3]),
    "P = 0": ([0.0, 1.0], [1.0, -1.0]),
}
BRANCH_P0 = {"positive": [3.0, 2.0], "mixed sign": [15.975, 7.175, 3.35], "P = 0": [1.0, 0.0]}
#: the exact compare routes: (system, solver); z_eigen and s_exact name one coth route
BRANCH_ROUTES = [("goldfish", "flat_exact"), ("matrix", "flat_exact"), ("geodesic", "flat_exact"),
                 ("hyperbolic-coth", "z_eigen"), ("hyperbolic-coth", "s_exact")]


@pytest.mark.parametrize("kind", sorted(BRANCH_DATA))
@pytest.mark.parametrize("system, solver", BRANCH_ROUTES)
def test_exact_routes_take_the_kernel_exactly_for_positive_velocities(monkeypatch, system, solver, kind):
    # each route reaches the one entry point once per call, which takes the
    # kernel for positive velocities and else the Aberth solve
    from goldfishlab import cli

    positions0, velocities0 = BRANCH_DATA[kind]
    raw = {"system": system, "N": len(positions0), "t_end": 1.0, "output_points": 3}
    if system == "hyperbolic-coth":
        raw.update(a_vec=positions0, c_vec=velocities0)
    elif system == "geodesic":
        raw.update(q0=positions0, p0=BRANCH_P0[kind])
    else:
        raw.update(q0=positions0, qdot0=velocities0)
    cfg = cli.RunConfig.from_dict(raw)
    calls = {"positions": 0, "_kernel": 0, "_aberth": 0}

    def counted(name):
        real = getattr(secular, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(secular, name, wrapper)

    for name in calls:
        counted(name)
    positive = kind == "positive"
    try:
        cli.SPECS[system].solvers[solver](cfg)
    except GoldfishLabError:
        assert not positive  # past its collision, the pair leaves the real axis
    assert calls == {"positions": 1, "_kernel": int(positive), "_aberth": int(not positive)}


POLES = "poles d must be finite and strictly increasing"


@pytest.mark.parametrize(
    "data, t_end, message",
    [
        # expm1(2 P t) overflows at t = 200
        (_coth([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]), 200.0, "gamma must be finite and >= 0"),
        # c z overflows at a = 354, and z at a = 355
        (_coth([0.0, 354.0], [1.0, 10.0]), 0.001, "weights w must be finite"),
        (_coth([0.0, 355.0], [1.0, 1.0]), 0.001, POLES),
        # z = e^{2 a} is 0 below a = -372.6, and subnormal near a = -371,
        # where poles tie; the route tests its poles before the secular domain
        (_coth([-400.0, -399.0], [1.0, 1.0]), 0.1, "poles d must be positive normal numbers"),
        (_coth([-400.0, 0.0], [1.0, 1.0]), 0.1, "poles d must be positive normal numbers"),
        (_coth([-371.0, -370.99999], [1.0, 1.0]), 0.1, "poles d must be positive normal numbers"),
        # a subnormal z (a < -354) has lost digits, and c z may underflow to 0
        (_coth([-371.0, 0.0], [1e-5, 1.0]), 0.1, "poles d must be positive normal numbers"),
    ],
    ids=["t_end 200", "a = 354", "a = 355", "z = 0", "z = 0 below z = 1", "tied z", "subnormal z"],
)
def test_positive_velocities_beyond_double_precision_raise_typed_errors(data, t_end, message):
    # the kernel's data are out of reach: no per-point route answers instead
    with pytest.raises(SecularOutOfDomain, match=f"^{message}$"):
        hyperbolic.exact_trajectory(data, np.linspace(0.0, t_end, 3))


@pytest.mark.parametrize(
    "data, t_end, message",
    [
        # expm1(2 P t) overflows at t = 100, and z at a = 355
        (_coth([0.0, 1.0], [5.0, -0.001]), 100.0, "gamma must be finite and >= 0"),
        (_coth([0.0, 355.0], [1.0, -0.5]), 0.001, POLES),
        (_coth([-400.0, 0.0], [1.0, -0.5]), 0.1, "poles d must be positive normal numbers"),
        # gamma sum(|c z|) overflows at [353, 354] from t = 2 on
        (_coth([353.0, 354.0], [1.0, -0.5]), 10.0, "d[-1] - d[0] + gamma sum(|w|) must be finite"),
    ],
    ids=["t_end 100", "a = 355", "z = 0 below z = 1", "span overflows"],
)
def test_mixed_signs_beyond_double_precision_raise_typed_errors(data, t_end, message):
    with pytest.raises(SecularOutOfDomain, match=f"^{re.escape(message)}$"):
        hyperbolic.exact_trajectory(data, np.linspace(0.0, t_end, 3))


def test_mixed_signs_up_to_the_largest_poles_answer():
    # at [353, 354] s(0) = e(z) overflows, but the secular data (z, c z) do
    # not: the route answers, on the integrated coth flow
    data = _coth([353.0, 354.0], [1.0, -0.5])
    traj = dynamics.integrate(hyperbolic.CothSystem(2), dynamics.GoldfishState(data.a_vec, data.c_vec),
                              0.001, TIGHT, 3)
    assert np.abs(hyperbolic.exact_trajectory(data, traj.times) - traj.rows[:, :2]).max() < 1e-12


def test_nonpositive_roots_raise_the_route_error():
    # at t = 2 the smallest root of these data is negative
    data = _coth([1.1, 1.45], [1.8, -1.4])
    with pytest.raises(SecularOutOfDomain, match=r"^smallest root -\d\.\d{3}e\+\d\d <= 0$"):
        hyperbolic.exact_trajectory(data, [0.0, 2.0])


def test_root_below_the_resolution_of_its_pole_raises(monkeypatch):
    # a root carried from its pole 1 by the offset -1 is 0: log1p would give q = -inf
    monkeypatch.setattr(secular, "positions", lambda *args: (np.array([[0, 1]]), np.array([[-1.0, 0.5]])))
    with pytest.raises(SecularOutOfDomain, match=r"^smallest root 0\.000e\+00 <= 0$"):
        hyperbolic.exact_trajectory(_coth([0.0, np.log(2.0) / 2.0], [-16.0, 15.0]), [1.0])


class TestRootFunction:
    def test_no_roots_at_time_zero(self):
        for q in (-0.7, 0.4, 2.0):
            assert hyperbolic.root_function_f(PAIR, 0.0, q) == -1.0

    def test_single_particle_root(self):
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=np.array([0.5]), c_vec=np.array([1.5]))
        assert abs(hyperbolic.root_function_f(data, 0.4, 0.5 + 1.5 * 0.4)) < 1e-12

    def test_vanishes_on_exact_trajectory(self):
        for t in (0.2, 0.5):
            for qi in hyperbolic.z_eigen_solution(PAIR, t):
                assert abs(hyperbolic.root_function_f(PAIR, t, float(qi))) < 1e-8

    @pytest.mark.parametrize("c_vec", [[1.0, -1.0], [0.7, -1.1, 0.4]])
    def test_vanishes_at_zero_momentum(self, c_vec):
        # tanh(P t)/P takes its limit t at P = 0
        c_vec = np.array(c_vec)
        c_vec[-1] -= c_vec.sum()
        a_vec = np.array([0.0, 1.0] if c_vec.size == 2 else [-0.4, 0.3, 1.2])
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        assert data.momentum == 0.0
        for t in (0.05, 0.1):
            for qi in hyperbolic.z_eigen_solution(data, t):
                assert abs(hyperbolic.root_function_f(data, t, float(qi))) < 1e-8

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            hyperbolic.root_function_f(PAIR, 0.5, 1.0 + 1e-10)


class TestValidation:
    def test_a_vec_must_increase(self):
        with pytest.raises(ValueError):
            hyperbolic.HyperbolicData(a=1.0, a_vec=np.array([1.0, 0.0]), c_vec=np.array([1.0, 1.0]))

    def test_coth_system_diagnostics(self):
        state = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        traj = dynamics.integrate(hyperbolic.CothSystem(2), state, 0.5, TIGHT, 11)
        assert traj.diagnostics["momentum_drift"].max() < 1e-11
        exact = np.vstack([hyperbolic.z_eigen_solution(PAIR, t) for t in traj.times])
        numeric = np.vstack([s.q for s in traj.states])
        assert np.abs(exact - numeric).max() < 1e-9
