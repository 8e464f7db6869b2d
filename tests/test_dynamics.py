import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from goldfishlab import dynamics, poisson
from goldfishlab.errors import (
    CollisionDetected,
    ComplexRoots,
    NegativeMomentum,
    NonPositiveVelocity,
    StepSizeUnderflow,
)

from conftest import states

TIGHT = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)


class TestGoldfishRhs:
    def test_hand_values(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        assert_allclose(dynamics.goldfish_rhs(s), [-2.0, 2.0])
        s = dynamics.GoldfishState([0.0, 1.0, 3.0], [1.0, 0.0, 1.0])
        assert_allclose(dynamics.goldfish_rhs(s), [-2.0 / 3.0, 0.0, 2.0 / 3.0])

    def test_static(self):
        s = dynamics.GoldfishState([0.0, 1.0], [0.0, 0.0])
        assert np.all(dynamics.goldfish_rhs(s) == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(states())
    def test_accelerations_sum_to_zero(self, state):
        q, qdot = state
        acc = dynamics.goldfish_rhs(dynamics.GoldfishState(q, qdot))
        assert abs(acc.sum()) < 1e-10 * max(1.0, np.abs(acc).max())


class TestEcmRhs:
    def test_two_particle_values(self):
        s = dynamics.ECMState([0.0, 1.0], [0.0, 0.0], [2.0])
        qdot, pdot, fdot = dynamics.ecm_rhs(s)
        assert_allclose(pdot, [-8.0, 8.0])
        assert np.all(fdot == 0.0)

    def test_free_streaming(self):
        s = dynamics.ECMState([0.0, 1.0], [1.0, 2.0], [0.0])
        qdot, pdot, fdot = dynamics.ecm_rhs(s)
        assert_allclose(qdot, [1.0, 2.0])
        assert np.all(pdot == 0.0)

    def test_matches_bracket_flow(self):
        rng = np.random.default_rng(0)
        structure = poisson.ecm_structure(3)
        ham = poisson.ecm_hamiltonian_observable(structure)
        for _ in range(5):
            q = np.sort(rng.uniform(-2, 2, 3))
            p = rng.uniform(0.5, 1.5, 3)
            fu = rng.uniform(-1, 1, 3)
            qdot, pdot, fdot = dynamics.ecm_rhs(dynamics.ECMState(q, p, fu))
            flow = poisson.hamiltonian_flow(structure, ham, poisson.ecm_point(q, p, fu))
            mine = np.concatenate([qdot, pdot, fdot[np.triu_indices(3, 1)]])
            assert np.abs(mine - flow).max() < 1e-9


class TestHamiltonians:
    def test_hand_value(self):
        s = dynamics.ECMState([0.0, 1.0], [1.0, 1.0], [1.0])
        assert dynamics.ecm_hamiltonian(s) == 2.0

    def test_constraint_surface_collapses_to_momentum_square(self):
        q = np.array([0.0, 1.0])
        p = np.array([1.0, 1.0])
        s = dynamics.ECMState(q, p, dynamics.f_from_velocities(q, p))
        assert_allclose(dynamics.ecm_hamiltonian_g(s), 0.5 * p.sum() ** 2)
        assert_allclose(dynamics.ecm_hamiltonian(s), 2.0)

    def test_zero_state(self):
        s = dynamics.ECMState([0.0, 1.0], [0.0, 0.0], [0.0])
        assert dynamics.ecm_hamiltonian(s) == 0.0
        assert dynamics.ecm_hamiltonian_g(s) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(states(max_n=5))
    def test_forms_agree_off_surface(self, state):
        q, p = state
        rng = np.random.default_rng(int(abs(q[0]) * 1e6) % 2**32)
        fu = rng.uniform(-1, 1, len(q) * (len(q) - 1) // 2)
        s = dynamics.ECMState(q, p, fu)
        h = dynamics.ecm_hamiltonian(s)
        assert abs(h - dynamics.ecm_hamiltonian_g(s)) <= 1e-12 * max(1.0, abs(h))

    def test_g_form_needs_nonnegative_momenta(self):
        s = dynamics.ECMState([0.0, 1.0], [-1.0, 1.0], [0.5])
        with pytest.raises(NegativeMomentum):
            dynamics.ecm_hamiltonian_g(s)


class TestFFromVelocities:
    def test_hand_values(self):
        assert dynamics.f_from_velocities([0.0, 1.0], [1.0, 4.0])[0, 1] == 2.0
        assert dynamics.f_from_velocities([0.0, 1.0], [1.0, 1.0])[0, 1] == 1.0
        f = dynamics.f_from_velocities([0.0, 1.0, 3.0], [1.0, 1.0, 1.0])
        assert_allclose(f[np.triu_indices(3, 1)], [1.0, 3.0, 2.0])

    def test_rejects_mixed_signs(self):
        with pytest.raises(NonPositiveVelocity):
            dynamics.f_from_velocities([0.0, 1.0], [1.0, -1.0])


class TestConservedQuantities:
    def test_bn_hand_values(self):
        assert_allclose(dynamics.conserved_bn(dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])), [2.0, 1.0])
        assert_allclose(
            dynamics.conserved_bn(dynamics.GoldfishState([1.0, 2.0, 3.0], [1.0, 0.0, 0.0])),
            [1.0, 5.0, 6.0],
        )
        assert np.all(dynamics.conserved_bn(dynamics.GoldfishState([1.0, 2.0], [0.0, 0.0])) == 0.0)

    def test_total_momentum(self):
        assert dynamics.total_momentum(dynamics.GoldfishState([0.0, 1.0], [1.0, 4.0])) == 5.0
        assert dynamics.total_momentum(dynamics.ECMState([0.0, 1.0], [1.0, 2.0], [0.3])) == 3.0
        with pytest.raises(TypeError):
            dynamics.total_momentum(np.zeros(3))


class TestGoldfishExact:
    def test_hand_value(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        assert_allclose(
            dynamics.goldfish_exact(s, 1.0),
            [0.3819660112501051, 2.618033988749895],
            rtol=1e-12,
        )

    def test_time_zero_and_static(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        assert_allclose(dynamics.goldfish_exact(s, 0.0), [0.0, 1.0], atol=1e-14)
        static = dynamics.GoldfishState([-0.3, 0.9], [0.0, 0.0])
        assert_allclose(dynamics.goldfish_exact(static, 5.0), [-0.3, 0.9], atol=1e-14)

    def test_exact_state_velocities(self):
        s = dynamics.GoldfishState([-0.5, 0.4, 1.7], [1.2, 0.7, 1.0])
        h = 1e-6
        st1 = dynamics.goldfish_exact_state(s, 0.2)
        fd = (dynamics.goldfish_exact(s, 0.2 + h) - dynamics.goldfish_exact(s, 0.2 - h)) / (2 * h)
        assert_allclose(st1.qdot, fd, atol=1e-8)

    def test_complex_roots_past_collision(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ComplexRoots):
            dynamics.goldfish_exact(s, 1.0)

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_trajectory_equals_pointwise_solver(self, n):
        # a negative velocity keeps the trajectory helper on its pointwise path
        rng = np.random.default_rng(n)
        q0 = np.linspace(-2.0, 2.0, n) + rng.uniform(-0.05, 0.05, n)
        qdot0 = rng.uniform(0.5, 1.5, n)
        qdot0[0] = -qdot0[0]
        s = dynamics.GoldfishState(q0, qdot0)
        times = np.linspace(0.0, 0.3, 21)
        pointwise = np.vstack([dynamics.goldfish_exact(s, t) for t in times])
        assert np.array_equal(dynamics.goldfish_exact_trajectory(s, times), pointwise)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_secular_trajectory_matches_pointwise_solver(self, n):
        rng = np.random.default_rng(n)
        q0 = np.linspace(-2.0, 2.0, n) + rng.uniform(-0.05, 0.05, n)
        s = dynamics.GoldfishState(q0, rng.uniform(0.5, 1.5, n))
        times = np.linspace(0.0, 0.3, 21)
        pointwise = np.vstack([dynamics.goldfish_exact(s, t) for t in times])
        assert np.abs(dynamics.goldfish_exact_trajectory(s, times) - pointwise).max() <= 1e-12


class TestIntegrate:
    def test_matches_exact_solver(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        traj = dynamics.integrate("goldfish", s, 1.0, TIGHT, output_points=11)
        assert np.abs(traj.states[-1].q - dynamics.goldfish_exact(s, 1.0)).max() < 1e-9
        assert traj.diagnostics["bn_drift"].max() < 1e-9

    def test_single_particle_is_free(self):
        s = dynamics.GoldfishState([0.5], [2.0])
        traj = dynamics.integrate("goldfish", s, 1.0, TIGHT, output_points=5)
        for t, state in zip(traj.times, traj.states):
            assert abs(state.q[0] - (0.5 + 2.0 * t)) < 1e-12

    def test_spin_system_tracks_goldfish_on_surface(self):
        q0 = np.array([0.0, 1.0, 2.2])
        qdot0 = np.array([1.0, 0.8, 1.2])
        gtraj = dynamics.integrate("goldfish", dynamics.GoldfishState(q0, qdot0), 0.3, TIGHT, 16)
        estate = dynamics.ECMState(q0, qdot0, dynamics.f_from_velocities(q0, qdot0))
        etraj = dynamics.integrate("ecm", estate, 0.3, TIGHT, 16)
        worst = max(np.abs(a.q - b.q).max() for a, b in zip(gtraj.states, etraj.states))
        assert worst < 1e-8
        assert etraj.diagnostics["constraint_norm"].max() < 1e-8
        assert etraj.diagnostics["energy_drift"].max() < 1e-9

    def test_collision_detected_with_partial(self):
        config = dynamics.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, collision_gap=1e-2)
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(CollisionDetected) as info:
            dynamics.integrate("goldfish", s, 2.0, config, output_points=21)
        assert info.value.partial is not None
        assert info.value.partial.times.size > 0
        assert 0.0 < info.value.time < 0.5

    def test_step_size_underflow_on_blowup(self):
        system = dynamics.CustomSystem(lambda t, y: y**2, name="blowup")
        with pytest.raises(StepSizeUnderflow):
            dynamics.integrate(system, np.array([1.0]), 2.0, dynamics.IntegratorConfig())

    def test_unknown_system_name(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="unknown system"):
            dynamics.integrate("nosuch", s, 1.0)

    def test_invalid_spans_and_points(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            dynamics.integrate("goldfish", s, 1.0, output_points=1)
        with pytest.raises(ValueError):
            dynamics.integrate("goldfish", s, (1.0, 1.0))


class TestValueObjects:
    def test_trajectory_requires_increasing_times(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            dynamics.Trajectory(times=np.array([0.0, 0.0]), states=[s, s])

    def test_integrator_config_validation(self):
        with pytest.raises(ValueError):
            dynamics.IntegratorConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            dynamics.IntegratorConfig(abs_tol=float("nan"))
        with pytest.raises(ValueError):
            dynamics.IntegratorConfig(collision_gap=-1.0)

    def test_ecm_state_accepts_matrix_and_upper(self):
        f = np.array([[0.0, 0.5], [-0.5, 0.0]])
        a = dynamics.ECMState([0.0, 1.0], [1.0, 1.0], f)
        b = dynamics.ECMState([0.0, 1.0], [1.0, 1.0], [0.5])
        assert np.array_equal(a.f, b.f)
        with pytest.raises(ValueError):
            dynamics.ECMState([0.0, 1.0], [1.0, 1.0], np.array([[0.0, 0.5], [0.5, 0.0]]))
