import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.testing import assert_allclose

from goldfishlab import symfun
from goldfishlab.errors import ComplexRoots, RootCollision

from conftest import configurations


def brute_force_elementary(q, n):
    """Tuple-sum definition: sum of products over index subsets of size n."""
    return sum(math.prod(combo) for combo in itertools.combinations(q, n))


class TestElemSymCoords:
    def test_hand_values(self):
        assert_allclose(symfun.elem_sym_coords([1.0, 2.0]), [3.0, 2.0])
        assert_allclose(symfun.elem_sym_coords([1.0, 2.0, 3.0]), [6.0, 11.0, 6.0])
        assert_allclose(symfun.elem_sym_coords([-1.0, 0.0, 1.0]), [0.0, -1.0, 0.0])

    @pytest.mark.parametrize("q", [[0.3, 1.1], [-1.0, 0.2, 0.9], [-2.0, -0.5, 0.25, 1.5]])
    def test_matches_tuple_sum(self, q):
        x = symfun.elem_sym_coords(q)
        expected = [brute_force_elementary(q, n) for n in range(1, len(q) + 1)]
        assert_allclose(x, expected, rtol=1e-13, atol=1e-14)

    def test_rejects_unordered_and_close(self):
        with pytest.raises(ValueError):
            symfun.as_configuration([1.0, 0.5])
        with pytest.raises(ValueError):
            symfun.as_configuration([0.0, 1e-12])
        with pytest.raises(ValueError):
            symfun.as_configuration([0.0, np.inf])


def plain_recurrence(values):
    """e_1..e_N of a float vector by the recurrence over the whole coefficient vector."""
    e = np.zeros(values.size + 1)
    e[0] = 1.0
    for v in values:
        e[1:] = e[1:] + v * e[:-1]
    return e[1:]


def exact_elementary(values):
    """e_1..e_N of a list of Fractions, in exact arithmetic."""
    e = [Fraction(1)] + [Fraction(0)] * len(values)
    for v in values:
        for k in range(len(values), 0, -1):
            e[k] += v * e[k - 1]
    return e[1:]


class TestFlatLine:
    def test_hand_values(self):
        # b = J(q) qdot: J([0, 1]) = [[1, 1], [1, 0]], J([1, 2, 3])[:, 0] = [1, 5, 6]
        x, b = symfun.flat_line(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        assert x.tolist() == [1.0, 0.0] and b.tolist() == [2.0, 1.0]
        x, b = symfun.flat_line(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 0.0]))
        assert x.tolist() == [6.0, 11.0, 6.0] and b.tolist() == [1.0, 5.0, 6.0]
        assert np.all(symfun.flat_line(np.array([1.0, 2.0]), np.zeros(2))[1] == 0.0)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_rows_are_the_single_row_calls_and_x_the_plain_recurrence(self, n):
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.uniform(-1, 2)
        q = np.sort(rng.uniform(-scale, scale, (5, n)), axis=1)
        qdot = rng.uniform(-1.0, 1.0, (5, n))
        x, b = symfun.flat_line(q, qdot)
        assert x.shape == b.shape == (5, n)
        for k in range(5):
            row_x, row_b = symfun.flat_line(q[k], qdot[k])
            assert np.array_equal(row_x, plain_recurrence(q[k]))
            assert np.array_equal(x[k], row_x) and np.array_equal(b[k], row_b)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_b_is_the_exact_affine_difference(self, n):
        # e(q) is affine in each q_j, so b = sum_j qdot_j (e(q | q_j := 1) -
        # e(q | q_j := 0)) exactly; on Fractions the kernel must give it, and
        # in floats each b_n lies within 2 N eps of the same sum over |q|, |qdot|
        rng = np.random.default_rng(n)
        q = np.sort(rng.uniform(-3.0, 3.0, n))
        qdot = rng.uniform(-1.5, 1.5, n)
        exact_q, exact_qdot = [Fraction(v) for v in q], [Fraction(v) for v in qdot]
        target = [Fraction(0)] * n
        for j, rate in enumerate(exact_qdot):
            high = exact_elementary(exact_q[:j] + [Fraction(1)] + exact_q[j + 1 :])
            low = exact_elementary(exact_q[:j] + [Fraction(0)] + exact_q[j + 1 :])
            target = [t + rate * (h - l) for t, h, l in zip(target, high, low)]
        x, b = symfun.flat_line(np.array(exact_q, dtype=object), np.array(exact_qdot, dtype=object))
        assert x.tolist() == exact_elementary(exact_q) and b.tolist() == target
        assert all(type(v) in (Fraction, int) for v in [*x, *b])
        got = symfun.flat_line(q, qdot)[1]
        scale = symfun.flat_line(np.abs(q), np.abs(qdot))[1]
        bound = 2 * n * Fraction(np.finfo(float).eps)
        for k in range(n):
            assert abs(Fraction(got[k]) - target[k]) <= bound * Fraction(scale[k])

    def test_stacked_fractions_stay_exact(self):
        rows = np.array([[Fraction(1, 3), Fraction(2)], [Fraction(-5, 7), 1]], dtype=object)
        x, b = symfun.flat_line(rows, np.array([[1, 0], [Fraction(1, 2), 2]], dtype=object))
        assert x.tolist() == [[Fraction(7, 3), Fraction(2, 3)], [Fraction(2, 7), Fraction(-5, 7)]]
        assert b.tolist() == [[1, 2], [Fraction(5, 2), Fraction(-13, 14)]]
        assert all(type(v) in (Fraction, int) for v in [*x.flat, *b.flat])


class TestJacobian:
    def test_hand_values(self):
        assert_allclose(symfun.jacobian([1.0, 2.0]), [[1.0, 1.0], [2.0, 1.0]])
        assert_allclose(
            symfun.jacobian([1.0, 2.0, 3.0]),
            [[1.0, 1.0, 1.0], [5.0, 4.0, 3.0], [6.0, 3.0, 2.0]],
        )
        assert_allclose(symfun.jacobian([7.0]), [[1.0]])

    @settings(max_examples=40, deadline=None)
    @given(configurations(min_n=1))
    def test_columns_match_finite_differences(self, q):
        h = 1e-5
        jac = symfun.jacobian(q)
        for j in range(len(q)):
            qp = q.copy()
            qm = q.copy()
            qp[j] += h
            qm[j] -= h
            col = (symfun.elem_sym_coords(qp) - symfun.elem_sym_coords(qm)) / (2 * h)
            assert np.abs(col - jac[:, j]).max() < 1e-7 * max(1.0, np.abs(jac).max())


def per_column_jacobian(q):
    """Column j is the elementary-polynomial recurrence over q without q_j."""
    q = np.asarray(q, dtype=float)
    n = q.size
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[0] = 1.0
        for v in np.delete(q, j):
            e[1:] = e[1:] + v * e[:-1]
        jac[:, j] = e
    return jac


class TestJacobianBitIdentity:
    @pytest.mark.parametrize("n", range(1, 65))
    def test_matches_per_column_recurrence(self, n):
        rng = np.random.default_rng(n)
        scale = 10.0 ** rng.uniform(-1, 2)
        q = np.sort(rng.uniform(-scale, scale, n))
        assert np.array_equal(symfun.jacobian(q), per_column_jacobian(q))

    @settings(max_examples=60, deadline=None)
    @given(configurations(min_n=1, max_n=12))
    def test_matches_per_column_recurrence_on_configurations(self, q):
        assert np.array_equal(symfun.jacobian(q), per_column_jacobian(q))


def exact_jacobian(values):
    """J[r][j] = e_r of ``values`` without entry j, in exact arithmetic."""
    n = len(values)
    columns = [[Fraction(1)] + exact_elementary(values[:j] + values[j + 1 :]) for j in range(n)]
    return [[columns[j][r] for j in range(n)] for r in range(n)]


def test_jacobian_stack_is_exact_on_fractions():
    q = [Fraction(-13, 8), Fraction(-1, 4), Fraction(5, 8), Fraction(17, 8)]
    stack = symfun.jacobian_stack(np.array([q, q[::-1]], dtype=object))
    assert stack[0].tolist() == exact_jacobian(q)
    assert stack[1].tolist() == exact_jacobian(q[::-1])


class TestJacobianDerivative:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_is_the_exact_difference_in_each_coordinate(self, n):
        # J is affine in each q_k, so J(q | q_k := 1) - J(q | q_k := 0) is
        # dJ/dq_k exactly.  Each float entry, an e_{r-1} of N - 2 of the
        # floats, lies within 4 N eps of it times the same difference taken
        # over |q|; where that difference is 0 (k = j, r = 0) it must be 0.
        rng = np.random.default_rng(n)
        q = np.sort(rng.uniform(-3.0, 3.0, n))
        got = symfun.jacobian_derivative(q)
        assert got.shape == (n, n, n)
        exact = [Fraction(x) for x in q]
        bound = 4 * n * Fraction(np.finfo(float).eps)
        for k in range(n):
            diffs = []
            for values in (exact, [abs(x) for x in exact]):
                high = exact_jacobian(values[:k] + [Fraction(1)] + values[k + 1 :])
                low = exact_jacobian(values[:k] + [Fraction(0)] + values[k + 1 :])
                diffs.append([[h - l for h, l in zip(hr, lr)] for hr, lr in zip(high, low)])
            diff, scale = diffs
            for r in range(n):
                for j in range(n):
                    assert abs(Fraction(got[k, r, j]) - diff[r][j]) <= bound * scale[r][j]


class TestJacobianDet:
    def test_hand_values(self):
        assert symfun.jacobian_det([1.0, 2.0]) == -1.0
        assert symfun.jacobian_det([1.0, 2.0, 3.0]) == -2.0
        # six negative factors: the pair product is +48
        assert symfun.jacobian_det([0.0, 1.0, 2.0, 4.0]) == 48.0

    @settings(max_examples=40, deadline=None)
    @given(configurations(min_n=1))
    def test_matches_lu_determinant(self, q):
        closed = symfun.jacobian_det(q)
        lu = np.linalg.det(symfun.jacobian(q))
        assert abs(closed - lu) <= 1e-9 * max(1.0, abs(closed))


class TestJacobianInverse:
    def test_hand_values(self):
        assert_allclose(symfun.jacobian_inverse([1.0, 2.0]), [[-1.0, 1.0], [2.0, -1.0]])
        assert_allclose(symfun.jacobian_inverse([1.0, 2.0, 3.0])[0], [0.5, -0.5, 0.5])

    def test_against_numerical_inverse(self):
        q = np.array([0.3, 1.1, 1.9, 2.6])
        assert_allclose(
            symfun.jacobian_inverse(q), np.linalg.inv(symfun.jacobian(q)), atol=1e-11
        )

    @settings(max_examples=40, deadline=None)
    @given(configurations(min_n=1))
    def test_product_is_identity(self, q):
        # Exact arithmetic on the same floats: the closed form times J is I
        # exactly, and each float entry of J^-1 lies within a relative 4 N eps
        # of its exact value (N - 1 rounded differences, N - 2 products, one
        # power and one quotient).  Entries below the smallest normal float
        # may underflow, so that much absolute error is allowed too.
        n = len(q)
        exact_q = [Fraction(x) for x in q]
        jac = []
        for m in range(n):  # J[m, j] = e_m of q without q_j
            row = []
            for j in range(n):
                e = [Fraction(1)] + [Fraction(0)] * n
                for i, x in enumerate(exact_q):
                    if i != j:
                        for k in range(n, 0, -1):
                            e[k] += x * e[k - 1]
                row.append(e[m])
            jac.append(row)
        inverse = []
        for i, x in enumerate(exact_q):
            denom = Fraction(1)
            for j, y in enumerate(exact_q):
                if j != i:
                    denom *= x - y
            inverse.append([(-1) ** m * x ** (n - 1 - m) / denom for m in range(n)])
        for i in range(n):
            for k in range(n):
                assert sum(jac[i][m] * inverse[m][k] for m in range(n)) == (i == k)
        got = symfun.jacobian_inverse(q)
        bound = 4 * n * Fraction(np.finfo(float).eps)
        tiny = Fraction(np.finfo(float).tiny)
        for i in range(n):
            for m in range(n):
                assert abs(Fraction(got[i, m]) - inverse[i][m]) <= bound * abs(inverse[i][m]) + tiny

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unchecked_is_exact_on_fractions(self, n):
        # q includes 0 from N = 3 on, where whole entries of J^-1 are exactly 0
        q = np.array([Fraction(k * k - 4, 3) for k in range(n)], dtype=object)
        inverse = symfun.jacobian_inverse_unchecked(q)
        assert all(type(v) is Fraction for v in inverse.flat)
        jac = symfun.jacobian_stack(q[None, :])[0]
        assert (jac @ inverse).tolist() == np.eye(n, dtype=int).tolist()
        assert (inverse @ jac).tolist() == np.eye(n, dtype=int).tolist()


class TestRootsFromCoords:
    def test_hand_values(self):
        assert_allclose(symfun.roots_from_coords([3.0, 2.0]), [1.0, 2.0])
        assert_allclose(symfun.roots_from_coords([0.0, -1.0]), [-1.0, 1.0])
        # roots of x^2 - 3x + 1 are (3 -+ sqrt(5))/2
        assert_allclose(
            symfun.roots_from_coords([3.0, 1.0]),
            [0.3819660112501051, 2.618033988749895],
            rtol=1e-12,
        )
        assert_allclose(symfun.roots_from_coords([4.0]), [4.0])

    def test_complex_roots_raise(self):
        with pytest.raises(ComplexRoots):
            symfun.roots_from_coords([0.0, 1.0])  # x^2 + 1

    def test_root_collision_raises(self):
        with pytest.raises(RootCollision):
            symfun.roots_from_coords([2.0, 1.0])  # (x - 1)^2

    # root recovery loses ~cond digits for tightly clustered roots, so the
    # searched domain keeps the gaps wide; the verification suite covers the
    # standard sampling recipe separately
    @settings(max_examples=50, deadline=None)
    @given(configurations(min_n=1, max_n=8, min_gap=0.5, max_gap=0.8))
    def test_roundtrip(self, q):
        back = symfun.roots_from_coords(symfun.elem_sym_coords(q))
        assert np.abs(back - q).max() <= 1e-10 * max(1.0, np.abs(q).max())
