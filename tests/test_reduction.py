import re

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from goldfishlab import dynamics, reduction, sampling
from goldfishlab.errors import (
    DegenerateRay,
    EigenvalueCollision,
    NonPositiveMomentum,
    NonPositiveVelocity,
)
from goldfishlab.utils import pairwise_differences

from conftest import states

TIGHT = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)


class TestMatrixFlow:
    def test_free_flow_is_affine(self):
        flow = reduction.MatrixFlow(np.diag([0.0, 1.0]), np.array([[1.0, 2.0], [2.0, 4.0]]))
        assert_allclose(reduction.free_flow(flow, 1.0), [[1.0, 2.0], [2.0, 5.0]])
        assert_allclose(reduction.free_flow(flow, 0.0), flow.x0)

    def test_requires_exact_symmetry(self):
        with pytest.raises(ValueError):
            reduction.MatrixFlow(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))


def eigen_track_reference(flow, times, gap_tol=1e-8):
    """The per-time definition of ``eigen_track``: one ``eigh`` and one sign fix per time."""
    n = flow.n
    frames, eigenvalues, prev = [], [], None
    for t in times:
        vals, vecs = np.linalg.eigh(reduction.free_flow(flow, t))
        if n > 1 and np.diff(vals).min() < gap_tol:
            raise EigenvalueCollision(
                f"eigenvalue gap {np.diff(vals).min():.3e} below {gap_tol:.3e} at t = {t:.6g}"
            )
        if prev is None:
            lead = np.abs(vecs).argmax(axis=0)
            signs = np.sign(vecs[lead, np.arange(n)])
        else:
            signs = np.sign(np.sum(prev * vecs, axis=0))
        signs[signs == 0] = 1.0
        prev = vecs * signs
        frames.append(prev)
        eigenvalues.append(vals)
    return np.array(frames), np.array(eigenvalues)


class TestEigenTrack:
    @pytest.mark.parametrize("n", [*range(1, 17), 32, 64])
    def test_stacked_decomposition_is_the_per_time_one(self, n):
        # at N = 64 the 201 times span 13 stacks of 16
        rng = np.random.default_rng(n)
        q0 = -2.0 + 4.0 / n * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n))
        flow = reduction.rank1_velocity(q0, rng.uniform(0.5, 1.5, n))
        times = np.linspace(0.0, 0.3, 201)
        ft, eigs = reduction.eigen_track(flow, times)
        frames, expected = eigen_track_reference(flow, times)
        assert np.array_equal(eigs, expected)
        assert np.array_equal(ft.frames, frames)

    @pytest.mark.parametrize("n, times", [(2, np.linspace(0.0, 1.0, 11)), (64, np.linspace(0.0, 1.0, 201))])
    def test_collision_message_is_the_per_time_one(self, n, times):
        # eigenvalue 0 runs into eigenvalue 1 at t = 0.6; at N = 64 that time
        # lies in the eighth stack
        speeds = np.zeros(n)
        speeds[0] = 1.0 / 0.6
        flow = reduction.MatrixFlow(np.diag(np.arange(n, dtype=float)), np.diag(speeds))
        with pytest.raises(EigenvalueCollision) as expected:
            eigen_track_reference(flow, times)
        with pytest.raises(EigenvalueCollision, match=f"^{re.escape(str(expected.value))}$"):
            reduction.eigen_track(flow, times)
        assert "at t = 0.6" in str(expected.value)


    def test_constant_flow(self):
        flow = reduction.MatrixFlow(np.diag([0.0, 1.0]), np.zeros((2, 2)))
        ft, eigs = reduction.eigen_track(flow, np.linspace(0, 1, 5))
        assert_allclose(ft.frames, np.broadcast_to(np.eye(2), (5, 2, 2)))
        assert_allclose(eigs, np.broadcast_to([0.0, 1.0], (5, 2)))

    def test_rank_one_eigenvalues(self):
        flow = reduction.MatrixFlow(np.diag([0.0, 1.0]), np.array([[1.0, 2.0], [2.0, 4.0]]))
        _, eigs = reduction.eigen_track(flow, np.array([0.0, 1.0]))
        assert_allclose(eigs[-1], [3.0 - 2.0 * np.sqrt(2.0), 3.0 + 2.0 * np.sqrt(2.0)])

    def test_frames_converge_with_grid(self):
        flow = reduction.rank1_velocity([0.0, 1.0, 2.0], [1.0, 0.7, 1.2])
        coarse, _ = reduction.eigen_track(flow, np.linspace(0, 0.3, 4))
        fine, _ = reduction.eigen_track(flow, np.linspace(0, 0.3, 301))
        step_coarse = max(
            np.abs(coarse.frames[k + 1] - coarse.frames[k]).max() for k in range(3)
        )
        step_fine = max(
            np.abs(fine.frames[k + 1] - fine.frames[k]).max() for k in range(300)
        )
        assert step_fine < step_coarse / 10

    def test_crossing_eigenvalues_raise(self):
        flow = reduction.MatrixFlow(np.diag([0.0, 1.0]), np.diag([1.0, -1.0]))
        with pytest.raises(EigenvalueCollision):
            reduction.eigen_track(flow, np.linspace(0.0, 1.0, 11))


class TestRankOneVelocity:
    def test_outer_product(self):
        flow = reduction.rank1_velocity([0.0, 1.0], [1.0, 4.0])
        assert_allclose(flow.v0, [[1.0, 2.0], [2.0, 4.0]])
        assert_allclose(np.linalg.eigvalsh(flow.v0), [0.0, 5.0], atol=1e-12)

    def test_eigenvalues_follow_exact_solution(self):
        flow = reduction.rank1_velocity([0.0, 1.0], [1.0, 4.0])
        state = dynamics.GoldfishState([0.0, 1.0], [1.0, 4.0])
        for t in (0.1, 0.5, 1.0):
            eigs = np.linalg.eigvalsh(reduction.free_flow(flow, t))
            assert_allclose(np.sort(eigs), dynamics.goldfish_exact(state, t), atol=1e-11)

    def test_rejects_nonpositive_velocity(self):
        with pytest.raises(NonPositiveVelocity):
            reduction.rank1_velocity([0.0, 1.0], [1.0, 0.0])


class TestCanonicalTransform:
    def test_hand_values(self):
        chart = reduction.canonical_transform([1.0, 2.0], [4.0, 1.0])
        assert_allclose(chart.P, [2.0, 1.0])
        assert_allclose(chart.Q, [4.0, 4.0])

    def test_angular_momentum_identity(self):
        chart = reduction.canonical_transform([0.0, 1.0], [1.0, 4.0])
        assert reduction.angular_momentum(chart)[0, 1] == -4.0

    @settings(max_examples=30, deadline=None)
    @given(states(max_n=5))
    def test_roundtrip(self, state):
        q, p = state
        chart = reduction.canonical_transform(q, p)
        q2, p2 = chart.Q / (2.0 * chart.P), chart.P**2
        assert np.abs(q2 - q).max() < 1e-12
        assert np.abs(p2 - p).max() < 1e-12

    def test_rejects_nonpositive_momentum(self):
        with pytest.raises(NonPositiveMomentum):
            reduction.canonical_transform([0.0, 1.0], [1.0, -2.0])


class TestMMatrix:
    def test_hand_values(self):
        assert reduction.m_matrix([0.0, 1.0], [1.0, 4.0])[0, 1] == 2.0
        assert reduction.m_matrix([0.0, 1.0], [1.0, 1.0])[0, 1] == 1.0

    def test_three_closed_forms_agree(self):
        # -sqrt(p_i p_j)/q_ij against f_ij/q_ij^2 and -2 P_i^2 P_j^2/(Q_i P_j - Q_j P_i),
        # on seeded draws in verify's domain
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            q = sampling.random_configuration(rng, n)
            p = sampling.random_velocities(rng, n)
            m = reduction.m_matrix(q, p)
            gaps = pairwise_differences(q) + np.eye(n)
            m_f = dynamics.f_from_velocities(q, p) / gaps**2
            chart = reduction.canonical_transform(q, p)
            rays = reduction.angular_momentum(chart) + np.eye(n)
            m_qp = np.where(np.eye(n, dtype=bool), 0.0, -2.0 * np.outer(chart.P**2, chart.P**2) / rays)
            scale = max(1.0, np.abs(m).max())
            assert np.abs(m_f - m).max() <= 1e-12 * scale
            assert np.abs(m_qp - m).max() <= 1e-12 * scale

    def test_close_pair_far_from_the_origin(self):
        # Q_i P_j - Q_j P_i cancels here, so only the sqrt(p p)/q form is accurate
        m = reduction.m_matrix([1000.0, 1000.001], [1.0, 2.0])
        assert m[0, 1] == -np.sqrt(2.0) / (1000.0 - 1000.001)
        assert m[1, 0] == -np.sqrt(2.0) / (1000.001 - 1000.0)

    def test_antisymmetric(self):
        m = reduction.m_matrix([-0.4, 0.7, 1.9], [0.9, 1.2, 0.6])
        assert np.abs(m + m.T).max() < 1e-14


class TestQPMotion:
    def test_pushforward_of_goldfish_flow(self):
        # oracle: transform qdot = p, pdot = goldfish acceleration at
        # q = (0, 1), p = (1, 4) through Q = 2 q sqrt(p), P = sqrt(p)
        chart = reduction.ReducedChart(Q=np.array([0.0, 4.0]), P=np.array([1.0, 2.0]))
        qdot, pdot = reduction.qp_rhs(chart)
        assert_allclose(qdot, [2.0, 20.0])
        assert_allclose(pdot, [-4.0, 2.0])

    def test_invariant_combination(self):
        chart = reduction.ReducedChart(Q=np.array([0.0, 4.0]), P=np.array([1.0, 2.0]))
        qdot, pdot = reduction.qp_rhs(chart)
        assert_allclose(qdot * chart.P - chart.Q * pdot, 2.0 * chart.P**4)

    def test_single_particle(self):
        chart = reduction.ReducedChart(Q=np.array([3.0]), P=np.array([2.0]))
        qdot, pdot = reduction.qp_rhs(chart)
        assert_allclose(qdot, [16.0])
        assert_allclose(pdot, [0.0])

    def test_degenerate_ray(self):
        chart = reduction.ReducedChart(Q=np.array([1.0, 2.0]), P=np.array([1.0, 2.0]))
        with pytest.raises(DegenerateRay):
            reduction.qp_rhs(chart)

    @settings(max_examples=30, deadline=None)
    @given(states(max_n=5))
    def test_identity_at_random_charts(self, state):
        q, p = state
        chart = reduction.canonical_transform(q, p)
        qdot, pdot = reduction.qp_rhs(chart)
        lhs = qdot * chart.P - chart.Q * pdot
        assert np.abs(lhs - 2.0 * chart.P**4).max() < 1e-10


class TestFrameFlow:
    def test_single_particle_frame_is_identity(self):
        ft = reduction.frame_flow([0.5], [2.0], 1.0, TIGHT, 5)
        assert_allclose(ft.frames, np.ones((5, 1, 1)))

    def test_orthogonality_preserved(self):
        ft = reduction.frame_flow([0.0, 1.0, 2.1], [1.0, 0.7, 1.3], 0.3, TIGHT, 31)
        for r in ft.frames:
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-8

    def test_matches_eigen_frame_up_to_column_signs(self):
        ft = reduction.frame_flow([0.0, 1.0], [1.0, 4.0], 0.3, TIGHT, 31)
        et, _ = reduction.eigen_track(reduction.rank1_velocity([0.0, 1.0], [1.0, 4.0]), ft.times)
        for a, b in zip(ft.frames, et.frames):
            signs = np.sign(np.sum(a * b, axis=0))
            signs[signs == 0] = 1.0
            assert np.abs(a - b * signs).max() < 1e-6

    def test_drifted_frames_are_projected_as_they_are_read(self, monkeypatch):
        # with no drift allowed, every frame but R(0) = I is polar-projected on
        # readout; the integration and the (Q, P) curves do not change
        q0, qdot0 = [0.0, 1.0, 2.1], [1.0, 0.7, 1.3]
        raw = reduction.frame_flow(q0, qdot0, 0.3, TIGHT, 11)
        monkeypatch.setattr(reduction, "FRAME_DRIFT_TOL", 0.0)
        projected = reduction.frame_flow(q0, qdot0, 0.3, TIGHT, 11)
        assert np.array_equal(raw.Q, projected.Q) and np.array_equal(raw.P, projected.P)
        for a, b in zip(raw.frames[1:], projected.frames[1:]):
            assert not np.array_equal(a, b)
            assert np.abs(a - b).max() < 1e-10
            assert np.abs(b.T @ b - np.eye(3)).max() < 1e-14

    def test_requires_positive_velocities(self):
        with pytest.raises(NonPositiveVelocity):
            reduction.frame_flow([0.0, 1.0], [1.0, -1.0], 0.1, None, 3)


class TestInvariantVectors:
    def test_initial_values(self):
        ft = reduction.frame_flow([0.0, 1.0], [1.0, 4.0], 0.3, TIGHT, 16)
        u, v = reduction.invariant_vectors(ft)
        assert_allclose(v[0], [1.0, 2.0])
        assert_allclose(u[0], [0.0, 4.0])

    def test_free_vector_motion(self):
        ft = reduction.frame_flow([0.0, 1.0, 2.2], [1.0, 0.8, 1.1], 0.3, TIGHT, 31)
        u, v = reduction.invariant_vectors(ft)
        assert np.abs(v - v[0]).max() < 1e-7
        vv = float(v[0] @ v[0])
        linear = u[0][None, :] + 2.0 * ft.times[:, None] * v[0][None, :] * vv
        assert np.abs(u - linear).max() < 1e-7

    def test_requires_chart_curves(self):
        ft, _ = reduction.eigen_track(
            reduction.rank1_velocity([0.0, 1.0], [1.0, 1.0]), np.linspace(0, 0.1, 3)
        )
        with pytest.raises(ValueError):
            reduction.invariant_vectors(ft)


class TestFrameConsistency:
    def test_initial_velocity_reconstruction(self):
        # Xdot(0) = R (Ddot + [M, D]) R^{-1} with R(0) = I must rebuild V0
        q0 = np.array([0.0, 1.0, 2.3])
        qdot0 = np.array([1.0, 0.7, 1.3])
        flow = reduction.rank1_velocity(q0, qdot0)
        m = reduction.m_matrix(q0, qdot0)
        d = np.diag(q0)
        xdot0 = np.diag(qdot0) + m @ d - d @ m
        assert np.abs(xdot0 - flow.v0).max() < 1e-10
