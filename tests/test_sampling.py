import numpy as np
import pytest
from scipy.stats import ks_2samp

from conftest import rejection
from goldfishlab import sampling


def tightest_gap(n, low, high):
    """The largest gap that leaves room for n positions in [low, high)."""
    gap = (high - low) / max(n - 1, 1)
    while high - low - (n - 1) * gap <= 0:
        gap = np.nextafter(gap, 0.0)
    return gap


@pytest.mark.parametrize("low, high", [(-2.0, 2.0), (-3.0, 3.0), (-1.1, 1.1)])
@pytest.mark.parametrize("n", range(1, 33))
def test_draws_are_sorted_in_range_and_gapped(n, low, high):
    tightest = tightest_gap(n, low, high)
    # low + y + k min_gap rounds each sum once: a few ulps of the coordinates
    rounding = 4.0 * np.spacing(max(abs(low), abs(high)))
    rng = np.random.default_rng(n)
    for min_gap in [0.0, 0.1 * tightest, 0.5 * tightest, 0.99 * tightest, tightest]:
        for _ in range(20):
            q = sampling.random_configuration(rng, n, low=low, high=high, min_gap=min_gap)
            assert q.shape == (n,)
            assert low <= q[0] and q[-1] <= high
            assert np.all(np.diff(q) >= min_gap - rounding)


@pytest.mark.parametrize("n, min_gap", [(2, 4.0), (3, 2.0), (9, 0.5), (41, 0.1), (2, 5.0)])
def test_infeasible_gap_raises_value_error(n, min_gap):
    with pytest.raises(ValueError, match=f"no room for {n} positions"):
        sampling.random_configuration(np.random.default_rng(0), n, min_gap=min_gap)


def test_same_seed_same_draw():
    def draws(seed):
        rng = np.random.default_rng(seed)
        return [sampling.random_configuration(rng, n, min_gap=0.3) for n in range(1, 12)]

    for ours, again in zip(draws(7), draws(7), strict=True):
        assert np.array_equal(ours, again)
    assert not np.array_equal(draws(7)[-1], draws(8)[-1])


def order_statistics(sampler, seed, draws=4000):
    rng = np.random.default_rng(seed)
    return np.array([sampler(rng, 3, min_gap=0.5) for _ in range(draws)]).T


def test_direct_draws_follow_the_rejection_law():
    # two-sample KS on each order statistic at N = 3, gap 0.5, fixed seeds
    for ours, ref in zip(order_statistics(sampling.random_configuration, 1),
                         order_statistics(rejection, 2), strict=True):
        assert ks_2samp(ours, ref).pvalue > 0.01


def test_ks_tells_a_wrong_gap_from_the_rejection_law():
    # the same transform at gap 0.4 instead of 0.5 is a different law: the
    # test above would see it
    wrong = order_statistics(lambda rng, n, min_gap: sampling.random_configuration(rng, n, min_gap=0.4), 1)
    ref = order_statistics(rejection, 2)
    assert min(ks_2samp(ours, theirs).pvalue for ours, theirs in zip(wrong, ref, strict=True)) < 1e-3
