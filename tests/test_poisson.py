import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from goldfishlab import dynamics, geometry, poisson, reduction, symfun
from goldfishlab.errors import GradientUnavailable, NegativeMomentum


def random_ecm_point(rng, n):
    q = np.sort(rng.uniform(-2, 2, n))
    while n > 1 and np.diff(q).min() < 0.1:
        q = np.sort(rng.uniform(-2, 2, n))
    return poisson.ecm_point(q, rng.uniform(0.5, 1.5, n), rng.uniform(-1, 1, n * (n - 1) // 2))


class TestEcmStructure:
    def test_canonical_pair(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [0.3])
        assert s.bracket(s.index("q1"), s.index("p1"), point) == 1.0
        assert s.bracket(s.index("q1"), s.index("p2"), point) == 0.0

    def test_spin_bracket_value(self):
        s = poisson.ecm_structure(3)
        f = np.array([[0.0, 1.0, 0.5], [-1.0, 0.0, 2.0], [-0.5, -2.0, 0.0]])
        point = poisson.ecm_point([0.0, 1.0, 2.0], [1.0, 1.0, 1.0], f)
        # {f12, f23} = -1/2 f13
        assert s.bracket(s.index("f_1_2"), s.index("f_2_3"), point) == -0.25

    def test_disjoint_spins_commute(self):
        s = poisson.ecm_structure(4)
        point = poisson.ecm_point([0.0, 1.0, 2.0, 3.0], np.ones(4), np.zeros(6))
        assert s.bracket(s.index("f_1_2"), s.index("f_3_4"), point) == 0.0

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(0)
        s = poisson.ecm_structure(4)
        for _ in range(50):
            mat = s.structure_matrix(random_ecm_point(rng, 4))
            assert np.array_equal(mat, -mat.T)

    def test_jacobi_all_triples(self):
        rng = np.random.default_rng(1)
        s = poisson.ecm_structure(4)
        for _ in range(10):
            assert poisson.jacobi_residual_all(s, random_ecm_point(rng, 4)) < 1e-10

    def test_jacobi_operation_matches_vectorized(self):
        # the nested operation {z_a, {z_b, z_c}} + cyclic through bracket_eval,
        # with the inner bracket as an observable, over every triple
        rng = np.random.default_rng(2)
        s = poisson.ecm_structure(3)
        point = random_ecm_point(rng, 3)

        def inner(b, c):
            return poisson.PhaseObservable(
                evaluate=lambda z: s.bracket(b, c, z),
                gradient=lambda z: s.structure_gradient(z)[:, b, c],
            )

        nested = 0.0
        for a, b, c in itertools.product(range(s.dim), repeat=3):
            cyclic = sum(
                poisson.bracket_eval(s, s.coordinate_observable(x), inner(y, z), point)
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
        assert s.bracket(s.index("q1"), s.index("pi1"), point) == 3.0
        assert s.bracket(s.index("q1"), s.index("q2"), point) == 0.0

    def test_momentum_bracket_value(self):
        s = poisson.goldfish_structure(2)
        point = poisson.goldfish_point([0.0, 1.0], [1.0, 1.0])
        assert s.bracket(s.index("pi1"), s.index("pi2"), point) == -2.0

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
                structure = s.bracket(s.index(f"pi{i + 1}"), s.index(f"pi{j + 1}"), point)
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
        val = poisson.bracket_eval(
            s, s.coordinate_observable("q1"), s.coordinate_observable("p1"), point
        )
        assert val == 1.0

    def test_self_bracket_vanishes(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.2, 0.7], [0.2])
        ham = poisson.ecm_hamiltonian_observable(s)
        assert abs(poisson.bracket_eval(s, ham, ham, point)) < 1e-14

    def test_hamiltonian_commutes_with_momentum(self):
        rng = np.random.default_rng(4)
        s = poisson.ecm_structure(3)
        ham = poisson.ecm_hamiltonian_observable(s)
        mom = poisson.total_momentum_observable(s)
        for _ in range(10):
            assert abs(poisson.bracket_eval(s, ham, mom, random_ecm_point(rng, 3))) < 1e-9

    def test_gradient_unavailable(self):
        s = poisson.ecm_structure(2)
        bad = poisson.PhaseObservable(
            evaluate=lambda z: float("nan"), gradient=lambda z: np.full_like(z, np.nan)
        )
        with pytest.raises(GradientUnavailable):
            poisson.bracket_eval(
                s, bad, s.coordinate_observable("q1"), poisson.ecm_point([0.0, 1.0], [1, 1], [0.0])
            )

    def test_observable_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        s = poisson.ecm_structure(3)
        point = random_ecm_point(rng, 3)
        for obs in (
            poisson.ecm_hamiltonian_observable(s),
            poisson.total_momentum_observable(s),
            poisson.g_constraint_observable(s, 0, 2),
            poisson.reduced_coordinate_observable(s, 1),
            poisson.reduced_momentum_observable(s, 1),
        ):
            numeric = np.empty(point.size)
            for a in range(point.size):
                h = 1e-6 * max(1.0, abs(point[a]))
                step = h * np.eye(point.size)[a]
                numeric[a] = (obs.evaluate(point + step) - obs.evaluate(point - step)) / (2.0 * h)
            assert np.abs(obs.gradient_at(point) - numeric).max() < 1e-8


class TestHamiltonianFlow:
    def test_ecm_flow_hand_value(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [2.0])
        flow = poisson.hamiltonian_flow(s, poisson.ecm_hamiltonian_observable(s), point)
        assert_allclose(flow, [1.0, 1.0, -8.0, 8.0, 0.0], atol=1e-13)

    def test_goldfish_flow_hand_value(self):
        s = poisson.goldfish_structure(2)
        point = poisson.goldfish_point([0.0, 1.0], [1.0, 1.0])
        flow = poisson.hamiltonian_flow(s, poisson.goldfish_hamiltonian_observable(s), point)
        assert_allclose(flow, [2.0, 2.0, -4.0, 4.0], atol=1e-14)

    def test_constant_observable_generates_no_flow(self):
        s = poisson.ecm_structure(2)
        point = poisson.ecm_point([0.0, 1.0], [1.0, 1.0], [0.5])
        constant = poisson.PhaseObservable(evaluate=lambda z: 3.0, gradient=np.zeros_like)
        assert np.all(poisson.hamiltonian_flow(s, constant, point) == 0.0)

    def test_printed_coefficient_fails_to_reproduce_goldfish(self):
        s1 = poisson.goldfish_structure(2, coefficient=1.0)
        point = poisson.goldfish_point([0.0, 1.0], [1.0, 1.0])
        flow = poisson.hamiltonian_flow(s1, poisson.goldfish_hamiltonian_observable(s1), point)
        qdot, pidot = flow[:2], flow[2:]
        acc = np.sum(pidot) * point[2:] + np.sum(point[2:]) * pidot
        target = dynamics.goldfish_rhs(dynamics.GoldfishState([0.0, 1.0], qdot))
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
                    poisson.g_constraint_observable(s, i, j),
                    poisson.g_constraint_observable(s, k, l),
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
        ham = poisson.ecm_hamiltonian_observable(s)
        q = np.sort(rng.uniform(-2, 2, 3))
        p = rng.uniform(0.5, 1.5, 3)
        on_surface = poisson.ecm_point(q, p, dynamics.f_from_velocities(q, p))
        off_surface = random_ecm_point(rng, 3)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            obs = poisson.g_constraint_observable(s, i, j)
            assert abs(poisson.bracket_eval(s, obs, ham, on_surface)) < 1e-9
        off = max(
            abs(poisson.bracket_eval(s, poisson.g_constraint_observable(s, i, j), ham, off_surface))
            for i, j in ((0, 1), (0, 2), (1, 2))
        )
        assert off > 1e-3

    def test_commutes_with_total_momentum(self):
        rng = np.random.default_rng(8)
        s = poisson.ecm_structure(4)
        mom = poisson.total_momentum_observable(s)
        point = random_ecm_point(rng, 4)
        for i, j in ((0, 1), (1, 3), (0, 3)):
            obs = poisson.g_constraint_observable(s, i, j)
            assert abs(poisson.bracket_eval(s, obs, mom, point)) < 1e-12

    def test_reduced_chart_transforms_as_vector(self):
        rng = np.random.default_rng(9)
        s = poisson.ecm_structure(3)
        point = random_ecm_point(rng, 3)
        q, p, _ = poisson.ecm_parts(point, 3)
        chart = reduction.canonical_transform(q, p)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            gobs = poisson.g_constraint_observable(s, i, j)
            for k in range(3):
                got_q = poisson.bracket_eval(
                    s, gobs, poisson.reduced_coordinate_observable(s, k), point
                )
                want_q = (i == k) * chart.Q[j] - (j == k) * chart.Q[i]
                assert abs(got_q - want_q) < 1e-9
                got_p = poisson.bracket_eval(
                    s, gobs, poisson.reduced_momentum_observable(s, k), point
                )
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
