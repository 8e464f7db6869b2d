import numpy as np
import pytest

from goldfishlab.utils import min_pairwise_gap, upper_indices


def all_pairs_gap(q):
    """The O(N^2) definition: smallest |q_i - q_j| over i < j."""
    return min(abs(q[i] - q[j]) for i in range(q.size) for j in range(i + 1, q.size))


def test_min_pairwise_gap_equals_all_pairs_bit_for_bit():
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(300):
        n = int(rng.integers(2, 40))
        draws.append(rng.uniform(-3.0, 3.0, n))  # unsorted, mixed sign
        draws.append(rng.choice([-1.0, 1.0], n) * (1.0 + 1e-12 * rng.integers(0, 5, n)))  # clustered
        draws.append(rng.normal(0.0, 1.0, n) * 10.0 ** rng.uniform(-12, 6, n))  # scales mixed
    draws += [np.array([0.0, -0.0, 1.0]), np.array([2.0, 2.0]), np.array([1e300, -1e300, 0.5])]
    for q in draws:
        gap = min_pairwise_gap(q)
        assert gap.hex() == float(all_pairs_gap(q)).hex(), q


def test_min_pairwise_gap_of_one_particle_is_infinite():
    assert min_pairwise_gap(np.array([0.3])) == np.inf


@pytest.mark.parametrize("n", [1, 2, 5])
def test_upper_indices_are_shared_and_read_only(n):
    iu, ju = upper_indices(n)
    assert all(np.array_equal(a, b) for a, b in zip((iu, ju), np.triu_indices(n, 1)))
    assert upper_indices(n)[0] is iu
    for array in (iu, ju):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
