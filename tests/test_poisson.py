import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from goldfishlab import dynamics, geometry, poisson, reduction, symfun
from goldfishlab.errors import GradientUnavailable, NegativeMomentum
from goldfishlab.utils import upper_indices


def random_ecm_point(rng, n):
    q = np.sort(rng.uniform(-2, 2, n))
    while n > 1 and np.diff(q).min() < 0.1:
        q = np.sort(rng.uniform(-2, 2, n))
    return poisson.ecm_point(q, rng.uniform(0.5, 1.5, n), rng.uniform(-1, 1, n * (n - 1) // 2))


def f_index(n, i, j):
    """Chart index of f_{i+1, j+1} on the ecm chart (0-based i < j)."""
    iu, ju = upper_indices(n)
    return 2 * n + int(np.flatnonzero((iu == i) & (ju == j))[0])


class TestEcmStructure:
    def test_canonical_pair(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [0.3])
        assert s.matrix(point)[0, 2] == 1.0  # {q1, p1}
        assert s.matrix(point)[0, 3] == 0.0  # {q1, p2}

    def test_spin_bracket_value(self):
        s = poisson.ecm_structure(3)
        f = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 2.0], [-0.5, -2.0, 0.0]])
        point = poisson.ecm_point([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], f)
        # {f12, f23} = -1/2 f13
        assert s.matrix(point)[f_index(3, 0, 1), f_index(3, 1, 2)] == -0.25

    def test_disjoint_spins_commute(self):
        s = poisson.ecm_structure(4)
        point = poisson.ecm_point([0.0, 1.0, 2.0, 3.0], np.ones(4), np.zeros(6))
        assert s.matrix(point)[f_index(4, 0, 1), f_index(4, 2, 3)] == 0.0

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(0)
        s = poisson.ecm_structure(4)
        for _ in range(50):
            mat = s.matrix(random_ecm_point(rng, 4))
            assert np.array_equal(mat, -mat.T)

    def test_jacobi_all_triples(self):
        rng = np.random.default_rng(1)
        s = poisson.ecm_structure(4)
        for _ in range(10):
            assert poisson.jacobi_residual_all(s, random_ecm_point(rng, 4)) < 1e-10

    def test_jacobi_operation_matches_vectorized(self):
        # the nested operation {z_a, {z_b, z_c}} + cyclic through bracket_eval,
        # with the inner bracket as the observable whose gradient is
        # d Pi_bc / dz, over every triple
        rng = np.random.default_rng(2)
        s = poisson.ecm_structure(3)
        point = random_ecm_point(rng, 3)
        units = np.eye(point.size)
        dpi = s.matrix_gradient(point)

        nested = 0.0
        for a, b, c in itertools.product(range(point.size), repeat=3):
            cyclic = sum(
                poisson.bracket_eval(s, units[x], dpi[:, y, z], point)
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
            )
            nested = max(nested, abs(cyclic))
        assert nested < 1e-10
        assert abs(poisson.jacobi_residual_all(s, point) - nested) < 1e-12

    def test_repeated_index_vanishes(self):
        # at N = 2 the structure matrix is constant ({f12, f12} = 0), so every
        # triple, (q1, q1, p1) among them, vanishes exactly
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [0.4])
        assert poisson.jacobi_residual_all(s, point) == 0.0


class TestGoldfishStructure:
    def test_diagonal_rule(self):
        s = poisson.goldfish_structure(2)
        point = poisson.goldfish_point([0.0, 1.0], [3.0, 0.5])
        assert s.matrix(point)[0, 2] == 3.0  # {q1, pi1}
        assert s.matrix(point)[0, 1] == 0.0  # {q1, q2}

    def test_momentum_bracket_value(self):
        s = poisson.goldfish_structure(2)
        point = poisson.goldfish_point([0.0, 1.0], [1.0, 1.0])
        assert s.matrix(point)[2, 3] == -2.0  # {pi1, pi2}

    def test_momentum_bracket_against_canonical_chart(self):
        """Brute-force the bracket of the exponential substitution.

        pi_i = exp(pt_i) / prod_{j != i}(q_i - q_j) under canonical {q, pt}
        brackets; the result fixes the coefficient 2 of the pi-pi structure
        function (reachable sign sectors alternate with the ordering).
        """

        def pi_of(q, pt):
            out = np.empty(q.size)
            for i in range(q.size):
                denom = np.prod([q[i] - q[j] for j in range(q.size) if j != i])
                out[i] = np.exp(pt[i]) / denom
            return out

        def canonical_bracket(f, g, q, pt, h=1e-6):
            total = 0.0
            for k in range(q.size):
                qp, qm = q.copy(), q.copy()
                qp[k] += h
                qm[k] -= h
                pp, pm = pt.copy(), pt.copy()
                pp[k] += h
                pm[k] -= h
                total += ((f(qp, pt) - f(qm, pt)) / (2 * h)) * ((g(q, pp) - g(q, pm)) / (2 * h))
                total -= ((f(q, pp) - f(q, pm)) / (2 * h)) * ((g(qp, pt) - g(qm, pt)) / (2 * h))
            return total

        q = np.array([0.0, 1.0, 2.5])
        pt = np.array([0.3, -0.2, 0.1])
        pi = pi_of(q, pt)
        s = poisson.goldfish_structure(3)
        point = poisson.goldfish_point(q, pi)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                brute = canonical_bracket(
                    lambda a, b, i=i: pi_of(a, b)[i], lambda a, b, j=j: pi_of(a, b)[j], q, pt
                )
                structure = s.matrix(point)[3 + i, 3 + j]
                assert abs(brute - structure) < 1e-8
                assert abs(structure - 2 * pi[i] * pi[j] / (q[i] - q[j])) < 1e-14

    def test_jacobi_all_triples(self):
        rng = np.random.default_rng(3)
        s = poisson.goldfish_structure(4)
        for _ in range(10):
            q = np.sort(rng.uniform(-2, 2, 4))
            while np.diff(q).min() < 0.1:
                q = np.sort(rng.uniform(-2, 2, 4))
            point = poisson.goldfish_point(q, rng.uniform(0.5, 1.5, 4))
            assert poisson.jacobi_residual_all(s, point) < 1e-8


class TestBracketEval:
    def test_canonical_value(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [0.2])
        units = np.eye(point.size)
        assert poisson.bracket_eval(s, units[0], units[2], point) == 1.0  # {q1, p1}

    def test_self_bracket_vanishes(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.2, 0.7], [0.2])
        ham = poisson.ecm_hamiltonian_gradient(point, 2)
        assert abs(poisson.bracket_eval(s, ham, ham, point)) < 1e-14

    def test_hamiltonian_commutes_with_momentum(self):
        rng = np.random.default_rng(4)
        s = poisson.ecm_structure(3)
        for _ in range(10):
            point = random_ecm_point(rng, 3)
            ham = poisson.ecm_hamiltonian_gradient(point, 3)
            mom = poisson.momentum_gradient(point, 3)
            assert abs(poisson.bracket_eval(s, ham, mom, point)) < 1e-9

    def test_gradient_unavailable(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1, 1], [0.0])
        bad = np.full(point.size, np.nan)
        with pytest.raises(GradientUnavailable):
            poisson.bracket_eval(s, bad, np.eye(point.size)[0], point)
        with pytest.raises(GradientUnavailable):
            poisson.hamiltonian_flow(s, bad, point)

    def test_observable_gradients_match_finite_differences(self):
        # each closed-form gradient against central differences of the shipped
        # value function it belongs to
        rng = np.random.default_rng(5)
        point = random_ecm_point(rng, 3)
        dq, dp = poisson.reduced_chart_gradients(point, 3, 1)
        for value, gradient in (
            (lambda q, p, f: dynamics.ecm_hamiltonian(dynamics.ECMState(q, p, f)),
             poisson.ecm_hamiltonian_gradient(point, 3)),
            (lambda q, p, f: np.sum(p), poisson.momentum_gradient(point, 3)),
            (lambda q, p, f: poisson.g_constraints(q, p, f)[0, 2],
             poisson.g_constraint_gradient(point, 3, 0, 2)),
            (lambda q, p, f: reduction.canonical_transform(q, p).Q[1], dq),
            (lambda q, p, f: reduction.canonical_transform(q, p).P[1], dp),
        ):
            numeric = np.empty(point.size)
            for a in range(point.size):
                h = 1e-6 * max(1.0, abs(point[a]))
                step = h * np.eye(point.size)[a]
                up = value(*poisson.ecm_parts(point + step, 3))
                down = value(*poisson.ecm_parts(point - step, 3))
                numeric[a] = (up - down) / (2.0 * h)
            assert np.abs(gradient - numeric).max() < 1e-8

    @pytest.mark.parametrize("zero", [0, 2])
    def test_gradients_unavailable_at_zero_momentum(self, zero):
        # G_ij = 2 (f_ij + (q_i - q_j) sqrt(p_i p_j)), Q_k = 2 q_k sqrt(p_k)
        # and P_k = sqrt(p_k) are not differentiable where a p they use vanishes
        p = np.array([1.0, 0.5, 1.5])
        p[zero] = 0.0
        point = poisson.ecm_point([0.0, 1.0, 2.0], p, [0.1, 0.2, 0.3])
        with pytest.raises(GradientUnavailable):
            poisson.g_constraint_gradient(point, 3, 0, 2)
        with pytest.raises(GradientUnavailable):
            poisson.reduced_chart_gradients(point, 3, zero)
        assert np.isfinite(poisson.g_constraint_gradient(point, 3, *sorted({0, 1, 2} - {zero}))).all()
        assert np.isfinite(poisson.reduced_chart_gradients(point, 3, 1)).all()


class TestHamiltonianFlow:
    def test_ecm_flow_hand_value(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [2.0])
        flow = poisson.hamiltonian_flow(s, poisson.ecm_hamiltonian_gradient(point, 2), point)
        assert_allclose(flow, [1.0, 1.0, -8.0, 8.0, 0.0], atol=1e-13)

    def test_goldfish_flow_hand_value(self):
        s = poisson.goldfish_structure(2)
        point = poisson.goldfish_point([0.0, 1.0], [1.0, 1.0])
        flow = poisson.hamiltonian_flow(s, poisson.goldfish_hamiltonian_gradient(point, 2), point)
        assert_allclose(flow, [2.0, 2.0, -4.0, 4.0], atol=1e-14)

    def test_constant_observable_generates_no_flow(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [0.5])
        assert np.all(poisson.hamiltonian_flow(s, np.zeros_like(point), point) == 0.0)

    def test_printed_coefficient_fails_to_reproduce_goldfish(self):
        s1 = poisson.goldfish_structure(2, coefficient=1.0)
        point = poisson.goldfish_point([0.0, 1.0], [1.0, 1.0])
        flow = poisson.hamiltonian_flow(s1, poisson.goldfish_hamiltonian_gradient(point, 2), point)
        qdot, pidot = flow[:2], flow[2:]
        acc = np.sum(pidot) * point[2:] + np.sum(point[2:]) * pidot
        target = dynamics.pair_acceleration(np.array([0.0, 1.0]), qdot, dynamics.GoldfishSystem.coupling)
        assert np.abs(acc - target).max() > 0.1


class TestConstraints:
    def test_hand_values(self):
        f = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert poisson.g_constraints([0.0, 1.0], [1.0, 4.0], f)[0, 1] == 0.0
        assert poisson.g_constraints([0.0, 1.0], [1.0, 1.0], np.zeros((2, 2)))[0, 1] == -2.0
        assert poisson.g_constraints([0.0, 1.0], [0.0, 0.0], f)[0, 1] == 4.0

    def test_negative_momentum_raises(self):
        with pytest.raises(NegativeMomentum):
            poisson.g_constraints([0.0, 1.0], [-0.5, 1.0], np.zeros((2, 2)))

    def test_so_n_relations(self):
        rng = np.random.default_rng(6)
        s = poisson.ecm_structure(3)
        point = random_ecm_point(rng, 3)
        q, p, f = poisson.ecm_parts(point, 3)
        gmat = poisson.g_constraints(q, p, f)
        pairs = [(0, 1), (0, 2), (1, 2)]
        for i, j in pairs:
            for k, l in pairs:
                got = poisson.bracket_eval(
                    s,
                    poisson.g_constraint_gradient(point, 3, i, j),
                    poisson.g_constraint_gradient(point, 3, k, l),
                    point,
                )
                want = (
                    -(1.0 if j == k else 0.0) * gmat[i, l]
                    + (1.0 if i == k else 0.0) * gmat[j, l]
                    + (1.0 if j == l else 0.0) * gmat[i, k]
                    - (1.0 if i == l else 0.0) * gmat[j, k]
                )
                assert abs(got - want) < 1e-10

    def test_weakly_conserved(self):
        rng = np.random.default_rng(7)
        s = poisson.ecm_structure(3)
        q = np.sort(rng.uniform(-2, 2, 3))
        p = rng.uniform(0.5, 1.5, 3)
        on_surface = poisson.ecm_point(q, p, dynamics.f_from_velocities(q, p))
        off_surface = random_ecm_point(rng, 3)

        def bracket_with_h(point, i, j):
            grad = poisson.g_constraint_gradient(point, 3, i, j)
            return poisson.bracket_eval(s, grad, poisson.ecm_hamiltonian_gradient(point, 3), point)

        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert abs(bracket_with_h(on_surface, i, j)) < 1e-9
        off = max(abs(bracket_with_h(off_surface, i, j)) for i, j in ((0, 1), (0, 2), (1, 2)))
        assert off > 1e-3

    def test_commutes_with_total_momentum(self):
        rng = np.random.default_rng(8)
        s = poisson.ecm_structure(4)
        point = random_ecm_point(rng, 4)
        mom = poisson.momentum_gradient(point, 4)
        for i, j in ((0, 1), (1, 3), (0, 3)):
            grad = poisson.g_constraint_gradient(point, 4, i, j)
            assert abs(poisson.bracket_eval(s, grad, mom, point)) < 1e-12

    def test_reduced_chart_transforms_as_vector(self):
        rng = np.random.default_rng(9)
        s = poisson.ecm_structure(3)
        point = random_ecm_point(rng, 3)
        q, p, _ = poisson.ecm_parts(point, 3)
        chart = reduction.canonical_transform(q, p)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            grad = poisson.g_constraint_gradient(point, 3, i, j)
            for k in range(3):
                dq, dp = poisson.reduced_chart_gradients(point, 3, k)
                got_q = poisson.bracket_eval(s, grad, dq, point)
                want_q = (i == k) * chart.Q[j] - (j == k) * chart.Q[i]
                assert abs(got_q - want_q) < 1e-9
                got_p = poisson.bracket_eval(s, grad, dp, point)
                want_p = (i == k) * chart.P[j] - (j == k) * chart.P[i]
                assert abs(got_p - want_p) < 1e-9


class TestBIntegrals:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_commutation_matrix_is_the_per_pair_sum(self, n):
        # the per-pair definition: {B_m, B_n} summed over the coordinate k, with
        # the derivatives of B = J g^{-1} pi taken by central differences here
        def b_integrals(q, pi):
            return symfun.jacobian(q) @ geometry.inverse_metric(q) @ pi

        rng = np.random.default_rng(n)
        q = np.sort(rng.uniform(-2, 2, n)) + 0.5 * np.arange(n)
        pi = rng.uniform(0.5, 1.5, n)
        h = 1e-4
        derivatives = []
        for k in range(n):
            step = h * np.eye(n)[k]
            dq = (b_integrals(q + step, pi) - b_integrals(q - step, pi)) / (2.0 * h)
            dp = (b_integrals(q, pi + step) - b_integrals(q, pi - step)) / (2.0 * h)
            derivatives.append((dq, dp))
        c = poisson.commutation_matrix(q, pi)
        for m in range(n):
            for l in range(n):
                total = 0.0
                for dq, dp in derivatives:
                    total += dq[m] * dp[l] - dp[m] * dq[l]
                assert abs(c[m, l] - total) < 1e-6

    def test_commutation_detects_a_wrong_metric_gradient(self, monkeypatch):
        # negative control: a 0.1 % error in d g^{-1}/dq moves the brackets far
        # above the rounding of the correct matrix
        rng = np.random.default_rng(7)
        q = np.sort(rng.uniform(-2, 2, 4)) + 0.5 * np.arange(4)
        pi = rng.uniform(0.5, 1.5, 4)
        assert np.abs(poisson.commutation_matrix(q, pi)).max() < 1e-10
        real = geometry.inverse_metric_gradient
        monkeypatch.setattr(geometry, "inverse_metric_gradient", lambda x: 1.001 * real(x))
        assert np.abs(poisson.commutation_matrix(q, pi)).max() > 1e-5

    def test_commutation_examples(self):
        c = poisson.commutation_matrix([1.0, 2.0], [8.0, 5.0])
        assert c[0, 1] == pytest.approx(0.0, abs=1e-12)
        assert c[0, 0] == 0.0
        rng = np.random.default_rng(11)
        q = np.sort(rng.uniform(-2, 2, 3))
        pi = rng.uniform(0.5, 1.5, 3)
        c = poisson.commutation_matrix(q, pi)
        assert np.abs(c).max() < 1e-10
        assert np.array_equal(c, -c.T)
