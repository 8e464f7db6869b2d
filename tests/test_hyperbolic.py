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
        # a negative velocity keeps the trajectory helpers on their pointwise paths
        rng = np.random.default_rng(n)
        a_vec = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.02, 0.02, n)
        c_vec = rng.uniform(0.5, 1.5, n)
        c_vec[0] = -0.1 * c_vec[0]
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)
        times = np.linspace(0.0, 0.3, 21)
        pointwise = np.vstack([hyperbolic.s_exact(data, t)[1] for t in times])
        assert np.array_equal(hyperbolic.exact_trajectory(data, times, "s_exact"), pointwise)
        pointwise = np.vstack([hyperbolic.z_eigen_solution(data, t) for t in times])
        assert np.array_equal(hyperbolic.exact_trajectory(data, times, "z_eigen"), pointwise)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_secular_trajectories_match_pointwise_solvers(self, n):
        rng = np.random.default_rng(n)
        a_vec = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.02, 0.02, n)
        data = hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=rng.uniform(0.5, 1.5, n))
        times = np.linspace(0.0, 0.3, 21)
        for route, pointwise in (
            ("s_exact", lambda t: hyperbolic.s_exact(data, t)[1]),
            ("z_eigen", lambda t: hyperbolic.z_eigen_solution(data, t)),
        ):
            expected = np.vstack([pointwise(t) for t in times])
            assert np.abs(hyperbolic.exact_trajectory(data, times, route) - expected).max() <= 1e-12

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
        # at P = 0 the clock is gamma = 2t: both routes answer, on the
        # integrated coth flow
        data = hyperbolic.HyperbolicData(
            a=1.0, a_vec=np.array([0.0, 1.0]), c_vec=np.array([1.0, -1.0])
        )
        traj = dynamics.integrate(hyperbolic.CothSystem(2), dynamics.GoldfishState(data.a_vec, data.c_vec),
                                  0.1, TIGHT, 5)
        q_rk = traj.rows[:, :2]
        for route in ("z_eigen", "s_exact"):
            assert np.abs(hyperbolic.exact_trajectory(data, traj.times, route) - q_rk).max() < 1e-10
        assert np.abs(hyperbolic.s_exact(data, 0.1)[1] - hyperbolic.z_eigen_solution(data, 0.1)).max() < 1e-12

    @pytest.mark.parametrize("c_vec", [[1.0, -1.0], [0.7, -1.1, 0.4]])
    def test_positions_continuous_at_zero_momentum(self, c_vec):
        # P = +-1e-9 moves gamma by about 2 P t^2 from its P = 0 limit 2t
        a_vec = np.array([0.0, 1.0] if len(c_vec) == 2 else [-0.4, 0.3, 1.2])
        times = np.linspace(0.0, 0.1, 5)
        base = np.array(c_vec)
        base[-1] -= base.sum()
        assert hyperbolic.HyperbolicData(1.0, a_vec, base).momentum == 0.0
        for route in ("z_eigen", "s_exact"):
            at_zero = hyperbolic.exact_trajectory(hyperbolic.HyperbolicData(1.0, a_vec, base), times, route)
            for p in (1e-9, -1e-9):
                shifted = base + p / base.size
                q = hyperbolic.exact_trajectory(hyperbolic.HyperbolicData(1.0, a_vec, shifted), times, route)
                assert np.abs(q - at_zero).max() < 1e-9

    def test_clock_limit(self):
        assert hyperbolic.clock(0.0, 0.25) == 0.5
        for p in (1e-9, -1e-9):
            assert abs(hyperbolic.clock(p, 0.25) - 0.5) < 1e-9
        assert_allclose(hyperbolic.clock(2.0, 0.25), np.expm1(1.0) / 2.0, rtol=1e-15)


def _exact_line(a_vec, c_vec, t):
    """s(t) = e(z) + gamma(t) J(z) c z at z = e^{2 a}, and q(t), in 60-digit arithmetic."""
    with mpmath.workdps(60):
        z = [mpmath.exp(2 * mpmath.mpf(float(a))) for a in a_vec]
        c = [mpmath.mpf(float(x)) for x in c_vec]
        p, t = mpmath.fsum(c), mpmath.mpf(float(t))
        gamma = 2 * t if p == 0 else mpmath.expm1(2 * p * t) / p

        def elementary(values):
            e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * len(values)
            for v in values:
                for k in range(len(values), 0, -1):
                    e[k] += v * e[k - 1]
            return e

        n = len(z)
        s = elementary(z)[1:]
        for j in range(n):
            rest = elementary(z[:j] + z[j + 1 :])
            for k in range(n):
                s[k] += gamma * c[j] * z[j] * rest[k]
        roots = mpmath.polyroots([(-1) ** k * x for k, x in enumerate([mpmath.mpf(1)] + s)], maxsteps=200,
                                 extraprec=200)
        q = sorted(float(mpmath.log(mpmath.re(r)) / 2) for r in roots)
        return s, np.array(q)


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


def _coth(a_vec, c_vec):
    return hyperbolic.HyperbolicData(a=1.0, a_vec=a_vec, c_vec=c_vec)


BRANCH_CASES = {
    # goldfish: every velocity positive, and one negative
    "goldfish": (dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0]), 1.0, True),
    "goldfish mixed sign": (dynamics.GoldfishState([0.0, 1.0], [1.0, -1.0]), 1.0, False),
    "coth": (PAIR, 0.3, True),
    "coth mixed sign": (_coth([-1.1, -0.33, 0.66], [0.1, -0.76, -0.06]), 1.0, False),
    "coth P = 0": (_coth([0.0, 1.0], [1.0, -1.0]), 1.0, False),
}


@pytest.mark.parametrize("case", sorted(BRANCH_CASES))
def test_exact_routes_take_the_kernel_exactly_for_positive_velocities(monkeypatch, case):
    data, t_end, kernel = BRANCH_CASES[case]
    routes = ([dynamics.goldfish_exact_trajectory] if case.startswith("goldfish")
              else [lambda data, times, route=route: hyperbolic.exact_trajectory(data, times, route)
                    for route in ("z_eigen", "s_exact")])
    real, calls = secular.secular_offsets, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(secular, "secular_offsets", counted)
    for route in routes:
        calls.clear()
        try:
            route(data, np.linspace(0.0, t_end, 3))
        except GoldfishLabError:
            assert not kernel  # the per-point routes raise their own errors
        assert len(calls) == int(kernel)


@pytest.mark.parametrize(
    "data, t_end, message",
    [
        # expm1(2 P t) overflows at t = 200
        (_coth([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]), 200.0, "is not finite in double precision"),
        # c z overflows at a = 354, and z at a = 355
        (_coth([0.0, 354.0], [1.0, 10.0]), 0.001, "is not finite in double precision"),
        (_coth([0.0, 355.0], [1.0, 1.0]), 0.001, "is not finite in double precision"),
        # z = e^{2 a} is 0 below a = -372.6, and subnormal poles near a = -371 tie
        (_coth([-400.0, -399.0], [1.0, 1.0]), 0.1, "underflows double precision"),
        (_coth([-371.0, -370.99999], [1.0, 1.0]), 0.1, "underflows double precision"),
    ],
    ids=["t_end 200", "a = 354", "a = 355", "z = 0", "tied z"],
)
def test_positive_velocities_beyond_double_precision_raise_typed_errors(data, t_end, message):
    # the kernel's data are out of reach: no per-point route answers instead
    times = np.linspace(0.0, t_end, 3)
    for route, error in (("z_eigen", NonPositiveEigenvalue), ("s_exact", NonPositiveRoot)):
        with pytest.raises(error, match=f"{message}$"):
            hyperbolic.exact_trajectory(data, times, route)


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
