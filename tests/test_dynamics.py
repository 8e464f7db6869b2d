import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from goldfishlab import dynamics, hyperbolic, poisson, reduction, secular, symfun
from goldfishlab.errors import (
    CollisionDetected,
    ComplexRoots,
    IntegrationError,
    NegativeMomentum,
    NonPositiveVelocity,
    StepSizeUnderflow,
)
from goldfishlab.utils import antisymmetric_from_upper, pairwise_differences, upper_indices

from conftest import states

TIGHT = dynamics.IntegratorConfig(rel_tol=1e-12, abs_tol=1e-12)


def _goldfish_acceleration(q, qdot):
    return dynamics.pair_acceleration(np.asarray(q, float), np.asarray(qdot, float), dynamics.GoldfishSystem.coupling)


def _ecm_rhs(q, p, fu):
    """(qdot, pdot, fdot upper triangle) of the spin system's one right-hand side."""
    n = len(q)
    y = dynamics.EcmSystem(n).rhs(0.0, np.concatenate([q, p, fu]).astype(float))
    return y[:n], y[n : 2 * n], y[2 * n :]


class TestGoldfishRhs:
    def test_hand_values(self):
        assert_allclose(_goldfish_acceleration([0.0, 1.0], [1.0, 1.0]), [-2.0, 2.0])
        assert_allclose(_goldfish_acceleration([0.0, 1.0, 3.0], [1.0, 0.0, 1.0]), [-2.0 / 3.0, 0.0, 2.0 / 3.0])

    def test_static(self):
        assert np.all(_goldfish_acceleration([0.0, 1.0], [0.0, 0.0]) == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(states())
    def test_accelerations_sum_to_zero(self, state):
        q, qdot = state
        acc = _goldfish_acceleration(q, qdot)
        assert abs(acc.sum()) < 1e-10 * max(1.0, np.abs(acc).max())


class TestEcmRhs:
    def test_two_particle_values(self):
        qdot, pdot, fdot = _ecm_rhs([0.0, 1.0], [0.0, 0.0], [2.0])
        assert_allclose(pdot, [-8.0, 8.0])
        assert np.all(fdot == 0.0)

    def test_free_streaming(self):
        qdot, pdot, fdot = _ecm_rhs([0.0, 1.0], [1.0, 2.0], [0.0])
        assert_allclose(qdot, [1.0, 2.0])
        assert np.all(pdot == 0.0)

    def test_matches_bracket_flow(self):
        rng = np.random.default_rng(0)
        structure = poisson.ecm_structure(3)
        for _ in range(5):
            q = np.sort(rng.uniform(-2, 2, 3))
            p = rng.uniform(0.5, 1.5, 3)
            fu = rng.uniform(-1, 1, 3)
            point = poisson.ecm_point(q, p, fu)
            flow = poisson.hamiltonian_flow(structure, poisson.ecm_hamiltonian_gradient(point, 3), point)
            assert np.abs(dynamics.EcmSystem(3).rhs(0.0, point) - flow).max() < 1e-9


# The right-hand sides as they stood before their diagonals were masked with
# one strided write; the kernels must equal them bit for bit.

def _parent_goldfish_acceleration(q, qdot):
    gaps = pairwise_differences(q)
    np.fill_diagonal(gaps, 1.0)
    inv = 1.0 / gaps
    np.fill_diagonal(inv, 0.0)
    return 2.0 * qdot * (inv @ qdot)


def _parent_ecm_forces(q, f):
    gaps = pairwise_differences(q)
    np.fill_diagonal(gaps, 1.0)
    ratios = f**2 / gaps**3
    np.fill_diagonal(ratios, 0.0)
    inv2 = 1.0 / gaps**2
    np.fill_diagonal(inv2, 0.0)
    return 2.0 * ratios.sum(axis=1), -(f * inv2) @ f + f @ (inv2 * f)


def _parent_ecm_rhs(n, y):
    pdot, fdot = _parent_ecm_forces(y[:n], antisymmetric_from_upper(y[2 * n :], n))
    return np.concatenate([y[n : 2 * n], pdot, fdot[upper_indices(n)]])


def _parent_pair_acceleration(lam, lamdot, coupling):
    gaps = pairwise_differences(lam)
    np.fill_diagonal(gaps, np.inf)
    kernel = coupling(gaps)
    np.fill_diagonal(kernel, 0.0)
    return 2.0 * lamdot * (kernel @ lamdot)


class TestStageKernels:
    """Each right-hand side equals its parent form bit for bit, on the
    contiguous stage vectors of the integrator and on strided grid rows."""

    @staticmethod
    def _states(n, width):
        rows = _grid(n, 6, width, seed=n)
        return list(rows) + [np.ascontiguousarray(y) for y in rows]

    @pytest.mark.parametrize("n", range(1, 17))
    def test_goldfish_and_ecm(self, n):
        for y in self._states(n, 2 * n):
            q, qdot = y[:n], y[n:]
            assert np.array_equal(dynamics.pair_acceleration(q, qdot, np.reciprocal),
                                  _parent_goldfish_acceleration(q, qdot))
        system = dynamics.EcmSystem(n)
        for y in self._states(n, 2 * n + n * (n - 1) // 2):
            f = antisymmetric_from_upper(y[2 * n :], n)
            for ours, parent in zip(dynamics.ecm_forces(y[:n], f), _parent_ecm_forces(y[:n], f)):
                assert np.array_equal(ours, parent)
            assert np.array_equal(system.rhs(0.0, y), _parent_ecm_rhs(n, y))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_pair_flows(self, n):
        # a = 100 makes sinh overflow at every off-diagonal gap
        for coupling in (hyperbolic.SinhSystem(n, 0.5).coupling, hyperbolic.SinhSystem(n, 100.0).coupling,
                         hyperbolic.CothSystem.coupling):
            for y in self._states(n, 2 * n):
                with np.errstate(over="ignore"):
                    parent = _parent_pair_acceleration(y[:n], y[n:], coupling)
                assert np.array_equal(dynamics.pair_acceleration(y[:n], y[n:], coupling), parent)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_frame_system(self, n):
        # the frame rides on the goldfish flow: (qdot, qddot) is GoldfishSystem's
        # right-hand side, and Rdot = R M with M from reduction.m_matrix
        frame, goldfish = reduction.FrameSystem(n), dynamics.GoldfishSystem(n)
        for y in self._states(n, 2 * n + n * n):
            out = frame.rhs(0.0, y)
            assert np.array_equal(out[: 2 * n], goldfish.rhs(0.0, y[: 2 * n]))
            rdot = y[2 * n :].reshape(n, n) @ reduction.m_matrix(y[:n], y[n : 2 * n])
            assert np.array_equal(out[2 * n :], rdot.ravel())

    @pytest.mark.parametrize("system, width", [
        (dynamics.GoldfishSystem(3), 6), (dynamics.EcmSystem(3), 9), (dynamics.GeodesicSystem(3), 6),
        (hyperbolic.SinhSystem(3, 0.5), 6), (hyperbolic.CothSystem(3), 6)])
    def test_rhs_evaluates_a_stage_outside_the_ordered_sector(self, system, width):
        # a trial stage may swap or nearly collide two positions; integrate
        # decides collisions from accepted steps, so no rhs checks its stage
        y = np.ascontiguousarray(_grid(3, 1, width, seed=1)[0])
        for first, second in ((y[1], y[0]), (y[0], y[0] + 1e-9)):
            y[0], y[1] = first, second
            assert np.isfinite(system.rhs(0.0, y)).all()


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


def _flat_exact(state0, times):
    """The goldfish ``flat_exact`` route: the positions from ``secular.positions``."""
    origin, offset = secular.positions(state0.q, state0.qdot, times)
    return state0.q[origin] + offset


class TestConservedQuantities:
    def test_bn_hand_values(self):
        # the goldfish diagnostics drift against b = J(q) qdot of symfun.flat_line
        def reference(q, qdot):
            return dynamics.GoldfishSystem(len(q)).reference(dynamics.GoldfishState(q, qdot))

        assert reference([0.0, 1.0], [1.0, 1.0]).tolist() == [2.0, 1.0]
        assert reference([1.0, 2.0, 3.0], [1.0, 0.0, 0.0]).tolist() == [1.0, 5.0, 6.0]
        assert np.all(reference([1.0, 2.0], [0.0, 0.0]) == 0.0)


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

    def test_complex_roots_past_collision(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ComplexRoots):
            dynamics.goldfish_exact(s, 1.0)

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_trajectory_equals_pointwise_solver(self, n):
        # a negative velocity takes the Aberth solve: its row at t = 0 is the
        # poles, and after it the pointwise solver's Vieta roots differ from
        # it by their own error, at most 5.9e-13 at n = 16
        rng = np.random.default_rng(n)
        q0 = np.linspace(-2.0, 2.0, n) + rng.uniform(-0.05, 0.05, n)
        qdot0 = rng.uniform(0.5, 1.5, n)
        qdot0[0] = -qdot0[0]
        s = dynamics.GoldfishState(q0, qdot0)
        times = np.linspace(0.0, 0.3, 21)
        pointwise = np.vstack([dynamics.goldfish_exact(s, t) for t in times])
        trajectory = _flat_exact(s, times)
        assert np.array_equal(trajectory[0], q0)
        assert np.abs(trajectory[1:] - pointwise[1:]).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_secular_trajectory_matches_pointwise_solver(self, n):
        rng = np.random.default_rng(n)
        q0 = np.linspace(-2.0, 2.0, n) + rng.uniform(-0.05, 0.05, n)
        s = dynamics.GoldfishState(q0, rng.uniform(0.5, 1.5, n))
        times = np.linspace(0.0, 0.3, 21)
        pointwise = np.vstack([dynamics.goldfish_exact(s, t) for t in times])
        assert np.abs(_flat_exact(s, times) - pointwise).max() <= 1e-12


class TestIntegrate:
    def test_matches_exact_solver(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        traj = dynamics.integrate(dynamics.GoldfishSystem(2), s, 1.0, TIGHT, output_points=11)
        assert np.abs(traj.states[-1].q - dynamics.goldfish_exact(s, 1.0)).max() < 1e-9
        assert traj.diagnostics["bn_drift"].max() < 1e-9

    def test_single_particle_is_free(self):
        s = dynamics.GoldfishState([0.5], [2.0])
        traj = dynamics.integrate(dynamics.GoldfishSystem(1), s, 1.0, TIGHT, output_points=5)
        for t, state in zip(traj.times, traj.states):
            assert abs(state.q[0] - (0.5 + 2.0 * t)) < 1e-12

    def test_spin_system_tracks_goldfish_on_surface(self):
        q0 = np.array([0.0, 1.0, 2.2])
        qdot0 = np.array([1.0, 0.8, 1.2])
        gtraj = dynamics.integrate(dynamics.GoldfishSystem(3), dynamics.GoldfishState(q0, qdot0), 0.3, TIGHT, 16)
        estate = dynamics.ECMState(q0, qdot0, dynamics.f_from_velocities(q0, qdot0))
        etraj = dynamics.integrate(dynamics.EcmSystem(3), estate, 0.3, TIGHT, 16)
        worst = max(np.abs(a.q - b.q).max() for a, b in zip(gtraj.states, etraj.states))
        assert worst < 1e-8
        assert etraj.diagnostics["constraint_norm"].max() < 1e-8
        assert etraj.diagnostics["energy_drift"].max() < 1e-9

    def test_collision_detected_with_partial(self):
        config = dynamics.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, collision_gap=1e-2)
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(CollisionDetected) as info:
            dynamics.integrate(dynamics.GoldfishSystem(2), s, 2.0, config, output_points=21)
        assert info.value.partial is not None
        assert info.value.partial.times.size > 0
        assert 0.0 < info.value.time < 0.5

    def test_step_size_underflow_on_blowup(self):
        class BlowUp(dynamics.OdeSystem):
            """One particle with xdot = x^2, which reaches infinity at t = 1 from x = 1."""

            def pack(self, state):
                return np.asarray(state, dtype=float)

            def unpack(self, y):
                return y.copy()

            def rhs(self, t, y):
                return y**2

        with pytest.raises(StepSizeUnderflow):
            dynamics.integrate(BlowUp(1), np.array([1.0]), 2.0, dynamics.IntegratorConfig())

    @pytest.mark.parametrize("sign, error, t_c", [(1.0, StepSizeUnderflow, 1.0),
                                                  (-1.0, CollisionDetected, 0.5)])
    def test_underflow_is_a_collision_iff_the_closest_pair_closes(self, sign, error, t_c):
        class Pair(dynamics.OdeSystem):
            """q_1 at rest, gap' = gap^2 (opening, infinite at t = 1) or
            gap' = -1/gap (closing, gap^2 = 1 - 2t)."""

            def pack(self, state):
                return np.asarray(state, dtype=float)

            def unpack(self, y):
                return y.copy()

            def rhs(self, t, y):
                gap = y[1] - y[0]
                return np.array([0.0, gap**2 if sign > 0 else -1.0 / gap])

        with pytest.raises(IntegrationError) as info:
            dynamics.integrate(Pair(2), np.array([0.0, 1.0]), 2.0, dynamics.IntegratorConfig(), 21)
        assert type(info.value) is error
        partial = info.value.partial
        assert partial.times[-1] <= info.value.time and abs(info.value.time - t_c) < 1e-6

    def test_invalid_spans_and_points(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            dynamics.integrate(dynamics.GoldfishSystem(2), s, 1.0, output_points=1)
        with pytest.raises(ValueError):
            dynamics.integrate(dynamics.GoldfishSystem(2), s, (1.0, 1.0))


def rejected_row_reference(system: dynamics.OdeSystem, rows: np.ndarray) -> int | None:
    """The per-row definition of ``OdeSystem.rejected_row``: the first row ``unpack`` rejects."""
    for k, y in enumerate(rows):
        try:
            system.unpack(y)
        except ValueError:
            return k
    return None


def _grid(n: int, rows: int, width: int, seed: int) -> np.ndarray:
    """Packed states of n ordered particles, laid out as ``integrate`` hands them
    to the systems: row k is a strided view of column k of a (width, rows) array."""
    rng = np.random.default_rng([n, seed])
    ys = rng.uniform(0.5, 1.5, (width, rows))
    ys[:n] = -2.0 + 4.0 / n * (np.arange(n)[:, None] + 0.5 + rng.uniform(-0.3, 0.3, (n, rows)))
    return ys.T


class TestOutputGrid:
    """Row work done once per output grid, against the per-row definitions."""

    @pytest.mark.parametrize("n", range(1, 65))
    def test_blocked_bn_is_the_per_row_product(self, n):
        # named for the blocked J(q) qdot it once pinned: the grid's b_n drift
        # is the per-row drift of symfun.flat_line's b bit for bit, that b is
        # J(q) qdot to rounding, and the stacked Jacobians are the per-row ones
        rows = _grid(n, 37, 2 * n, seed=0)
        q, qdot = rows[:, :n], rows[:, n:]
        jac = symfun.jacobian_stack(q)
        system = dynamics.GoldfishSystem(n)
        reference = system.reference(system.unpack(rows[0]))
        drift = system.grid_diagnostics(reference, rows)
        assert drift["bn_drift"][0] == 0.0
        eps = np.finfo(float).eps
        for k in range(len(rows)):
            assert np.array_equal(jac[k], symfun.jacobian(q[k]))
            b = symfun.flat_line(q[k], qdot[k])[1]
            assert drift["bn_drift"][k] == np.abs(b - reference).max()
            assert drift["momentum_drift"][k] == abs(b[0] - reference[0])
            # each of b and J qdot rounds within 2 N eps of the sums over |q|, |qdot|
            scale = symfun.flat_line(np.abs(q[k]), np.abs(qdot[k]))[1]
            assert np.all(np.abs(b - jac[k] @ qdot[k]) <= 4 * n * eps * scale)

    @pytest.mark.parametrize("system, width", [
        (dynamics.GoldfishSystem(5), 10), (dynamics.EcmSystem(5), 20),
        (dynamics.GeodesicSystem(5), 10), (hyperbolic.SinhSystem(5, 0.5), 10),
        (hyperbolic.CothSystem(5), 10)])
    def test_grid_checks_reject_the_rows_unpack_rejects(self, system, width):
        for bad in range(6):
            rows = np.array(_grid(5, 9, width, seed=bad))  # a copy, rows writable
            if bad < 5:
                rows[bad + 2, [0, 1, 3, 7, width - 1][bad]] = [np.nan, 0.0, 5.0, np.inf, -np.inf][bad]
                rows[8, 2] = rows[8, 1] + 1e-9  # a later row at a gap below the collision tolerance
            assert system.rejected_row(rows) == rejected_row_reference(system, rows)
        assert system.rejected_row(_grid(5, 9, width, seed=7)) is None

    @pytest.mark.parametrize("bad_row", [None, 0, 2, -1])
    def test_partial_trajectory_keeps_the_rows_before_the_first_rejected_one(self, monkeypatch, bad_row):
        def salvage(system, times, ys):
            # the per-row rule: drop the last row until every row unpacks
            while times.size:
                try:
                    for k in range(times.size):
                        system.unpack(ys[:, k])
                    return times, ys
                except ValueError:
                    times, ys = times[:-1], ys[:, :-1]
            return None

        real, seen = dynamics.solve_ivp, {}

        def corrupted(*args, **kwargs):
            sol = real(*args, **kwargs)
            if bad_row is not None:
                sol.y[1, bad_row] = sol.y[0, bad_row]  # a collided pair
            seen["sol"] = sol
            return sol

        monkeypatch.setattr(dynamics, "solve_ivp", corrupted)
        config = dynamics.IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, collision_gap=1e-2)
        state0 = dynamics.GoldfishState([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(CollisionDetected) as info:
            dynamics.integrate(dynamics.GoldfishSystem(2), state0, 2.0, config, output_points=21)
        sol, partial = seen["sol"], info.value.partial
        expected = salvage(dynamics.GoldfishSystem(2), sol.t, sol.y)
        if expected is None:
            assert partial is None
        else:
            assert np.array_equal(partial.times, expected[0])
            assert np.array_equal(partial.rows, expected[1].T)
            assert [s.q.tolist() for s in partial.states] == expected[1][:2].T.tolist()
        assert bad_row != 0 or partial is None
        assert bad_row != -1 or partial.times.size == sol.t.size - 1


class TestValueObjects:
    def test_trajectory_requires_increasing_times(self):
        s = dynamics.GoldfishState([0.0, 1.0], [1.0, 1.0])
        system = dynamics.GoldfishSystem(2)
        rows = np.vstack([system.pack(s), system.pack(s)])
        with pytest.raises(ValueError):
            dynamics.Trajectory(system, s, np.array([0.0, 0.0]), rows)

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
