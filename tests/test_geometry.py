import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from goldfishlab import dynamics, geometry, symfun

from conftest import configurations


class TestChristoffel:
    def test_two_particles(self):
        gam = geometry.christoffel([0.0, 1.0])
        assert gam[0, 0, 1] == 1.0
        assert gam[0, 1, 0] == 1.0
        assert gam[1, 0, 1] == -1.0
        assert gam[1, 1, 0] == -1.0
        assert gam[0, 0, 0] == 0.0 and gam[1, 1, 1] == 0.0

    def test_single_particle_vanishes(self):
        assert np.all(geometry.christoffel([5.0]) == 0.0)

    def test_three_particle_entry(self):
        gam = geometry.christoffel([0.0, 1.0, 3.0])
        assert_allclose(gam[0, 0, 2], 1.0 / 3.0)

    @settings(max_examples=30, deadline=None)
    @given(configurations(min_n=1))
    def test_symmetry_and_sparsity(self, q):
        gam = geometry.christoffel(q)
        assert np.array_equal(gam, gam.transpose(0, 2, 1))
        n = len(q)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if i != j and i != k:
                        assert gam[i, j, k] == 0.0


class TestCurvature:
    def test_flat_for_rational_w(self):
        q = np.array([0.0, 1.0, 3.0])
        assert np.abs(geometry.curvature(q)).max() < 1e-12

    def test_nonflat_control(self):
        assert np.abs(geometry.curvature(np.array([0.0, 1.0, 3.0]), 1.0)).max() > 0.1

    def test_two_particles_flat_only_for_coefficient_two(self):
        # per pair the only surviving component is -w'_12 + w_12^2, which
        # vanishes exactly for w = 2/x; c = 1 leaves (c/2 - c^2/4)/gap^2
        q = np.array([0.0, 1.0])
        assert np.abs(geometry.curvature(q)).max() < 1e-15
        assert_allclose(np.abs(geometry.curvature(q, 1.0)).max(), 0.25)

    @settings(max_examples=15, deadline=None)
    @given(configurations(max_n=5))
    def test_closed_form_matches_connection_assembly(self, q):
        closed = geometry.curvature(q, 1.0)
        diff = closed - geometry.curvature_from_connection(q, 1.0)
        assert np.abs(diff).max() <= 1e-12 * max(1.0, np.abs(closed).max())


class TestMetric:
    def test_hand_values(self):
        assert_allclose(geometry.metric([1.0, 2.0]), [[5.0, 3.0], [3.0, 2.0]])
        assert_allclose(geometry.metric([4.0]), [[1.0]])

    # the LU determinant of g carries a relative error ~ eps * cond(g), so
    # the searched domain stays where cond(g) <= 1e6
    @settings(max_examples=30, deadline=None)
    @given(configurations(min_n=1, min_gap=0.3, max_gap=0.6, bound=1.2))
    def test_determinant_is_squared_vandermonde(self, q):
        det = np.linalg.det(geometry.metric(q))
        vandermonde = symfun.jacobian_det(q)
        assert abs(det - vandermonde**2) <= 1e-9 * max(1.0, vandermonde**2)

    def test_inverse_metric_hand_values(self):
        assert_allclose(geometry.inverse_metric([1.0, 2.0]), [[2.0, -3.0], [-3.0, 5.0]])
        assert_allclose(geometry.inverse_metric([5.0]), [[1.0]])

    @settings(max_examples=30, deadline=None)
    @given(configurations(min_n=1, min_gap=0.3, max_gap=0.6, bound=1.2))
    def test_inverse_metric_inverts(self, q):
        prod = geometry.metric(q) @ geometry.inverse_metric(q)
        assert np.abs(prod - np.eye(len(q))).max() < 1e-10


class TestGeodesicFlow:
    def test_hamiltonian_hand_value(self):
        state = geometry.GeodesicState([1.0, 2.0], [8.0, 5.0])
        assert_allclose(geometry.geodesic_hamiltonian(state), 6.5)

    def test_hamiltonian_zero_momentum(self):
        state = geometry.GeodesicState([0.2, 1.4, 2.0], np.zeros(3))
        assert geometry.geodesic_hamiltonian(state) == 0.0

    def test_hamiltonian_single_particle(self):
        state = geometry.GeodesicState([0.0], [3.0])
        assert_allclose(geometry.geodesic_hamiltonian(state), 4.5)

    def test_rhs_hand_value(self):
        state = geometry.GeodesicState([1.0, 2.0], [8.0, 5.0])
        qdot, _ = geometry.geodesic_rhs(state.q, state.pi)
        assert_allclose(qdot, [1.0, 1.0], atol=1e-13)

    def test_rhs_single_particle(self):
        state = geometry.GeodesicState([0.3], [2.0])
        qdot, pidot = geometry.geodesic_rhs(state.q, state.pi)
        assert_allclose(qdot, [2.0])
        assert_allclose(pidot, [0.0])

    @pytest.mark.parametrize("n, draws, tol", [(n, 10, 1e-12) for n in range(1, 9)] + [(32, 1, 1e-10)])
    def test_flat_momenta_match_the_closed_form(self, n, draws, tol):
        # Hamilton's equations and H through P = J^{-T} pi against the
        # closed-form g^{-1} and its gradient, on gaps in [0.3, 0.9]
        rng = np.random.default_rng(n)
        for _ in range(draws):
            q = 0.6 * np.arange(n) - 0.3 * (n - 1) + rng.uniform(-0.15, 0.15, n)
            pi = rng.uniform(-1.5, 1.5, n)
            state = geometry.GeodesicState(q, pi)
            ginv = geometry.inverse_metric(q)
            dg = geometry.inverse_metric_gradient(q)
            closed = ginv @ pi, -0.5 * np.einsum("i,kij,j->k", pi, dg, pi)
            for ours, oracle in zip(geometry.geodesic_rhs(state.q, state.pi), closed):
                assert np.abs(ours - oracle).max() <= tol * np.abs(oracle).max()
            energy = 0.5 * float(pi @ ginv @ pi)
            assert abs(geometry.geodesic_hamiltonian(state) - energy) <= tol * energy

    def test_gradient_analytic_vs_mpmath(self):
        # d g^{ij} / d q_k of the closed form sum_m (q_i q_j)^m / (D_i D_j), by
        # mpmath's own differentiation at 30 digits
        q = np.array([-1.2, -0.1, 0.8, 1.7])
        n = q.size

        def entry(i, j, k):
            def g_ij(x):
                qs = [mpmath.mpf(v) for v in q]
                qs[k] = x
                d = [mpmath.fprod(qs[a] - qs[b] for b in range(n) if b != a) for a in range(n)]
                return mpmath.fsum((qs[i] * qs[j]) ** m for m in range(n)) / (d[i] * d[j])

            return float(mpmath.diff(g_ij, mpmath.mpf(q[k])))

        with mpmath.workdps(30):
            exact = np.array([[[entry(i, j, k) for j in range(n)] for i in range(n)] for k in range(n)])
        assert_allclose(geometry.inverse_metric_gradient(q), exact, rtol=1e-12, atol=1e-12)

    def test_acceleration_matches_goldfish(self):
        q = np.array([-0.9, 0.2, 1.4])
        pi = np.array([0.7, 1.1, 0.6])
        state = geometry.GeodesicState(q, pi)
        qdot, pidot = geometry.geodesic_rhs(state.q, state.pi)
        dg = geometry.inverse_metric_gradient(q)
        acc = np.einsum("kij,k,j->i", dg, qdot, pi) + geometry.inverse_metric(q) @ pidot
        assert_allclose(acc, dynamics.pair_acceleration(q, qdot, dynamics.GoldfishSystem.coupling), atol=1e-10)

    def test_energy_conserved_along_flow(self):
        q = np.array([-0.5, 0.5, 1.5])
        state = geometry.GeodesicState(q, geometry.metric(q) @ np.array([1.0, 0.8, 1.2]))
        config = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)
        traj = dynamics.integrate(dynamics.GeodesicSystem(3), state, 0.3, config, output_points=11)
        assert traj.diagnostics["energy_drift"].max() < 1e-9
