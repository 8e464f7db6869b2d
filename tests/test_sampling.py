import numpy as np
import pytest

from goldfishlab import sampling


def one_at_a_time(rng, n, low=-2.0, high=2.0, min_gap=0.1, max_tries=10_000):
    """The rejection loop that ``random_configuration`` reproduces."""
    for _ in range(max_tries):
        q = np.sort(rng.uniform(low, high, n))
        if n < 2 or np.diff(q).min() >= min_gap:
            return q
    raise RuntimeError(f"could not draw {n} positions with gap >= {min_gap}")


def draw_both(seed, **kwargs):
    """(result or error message, generator state) of both samplers."""
    out = []
    for sampler in (sampling.random_configuration, one_at_a_time):
        rng = np.random.default_rng(seed)
        try:
            result = [sampler(rng, **kwargs) for _ in range(3)]
        except RuntimeError as exc:
            result = str(exc)
        out.append((result, rng.bit_generator.state, rng.uniform()))
    return out


@pytest.mark.parametrize("min_gap", [0.1, 0.3, 0.5])
@pytest.mark.parametrize("n", range(1, 9))
def test_block_draws_reproduce_the_one_at_a_time_stream(n, min_gap):
    # at N = 7, 8 with min_gap 0.5 almost no candidate fits: both exhaust max_tries
    for seed in range(6):
        (ours, our_state, our_next), (ref, ref_state, ref_next) = draw_both(
            seed, n=n, min_gap=min_gap, max_tries=2_000)
        if isinstance(ref, str):
            assert ours == ref
        else:
            assert all(np.array_equal(a, b) for a, b in zip(ours, ref, strict=True))
        assert our_state == ref_state and our_next == ref_next


@pytest.mark.parametrize("max_tries", [0, 1, 2, 9, 50, 300])
def test_max_tries_counts_candidates(max_tries):
    # N = 6 at gap 0.5 accepts about 0.3 % of candidates: a short budget is exhausted
    for seed in range(4):
        (ours, our_state, _), (ref, ref_state, _) = draw_both(
            seed, n=6, min_gap=0.5, max_tries=max_tries)
        if isinstance(ref, str):
            assert ours == ref == "could not draw 6 positions with gap >= 0.5"
        else:
            assert all(np.array_equal(a, b) for a, b in zip(ours, ref, strict=True))
        assert our_state == ref_state

