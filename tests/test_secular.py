import re

import mpmath
import numpy as np
import pytest

from goldfishlab import secular
from goldfishlab.errors import ComplexRoots, RootCollision, SecularOutOfDomain

#: half-width of the certified interval around each offset, in units in the
#: last place of the offset itself
CERTIFIED_ULPS = 32


def certify(d, w, gamma):
    """Check each root by a sign change of f across [root - e, root + e] at 60 digits.

    The root is d[origin] + offset taken exactly, so the certificate holds for
    the offset to a relative accuracy of CERTIFIED_ULPS ulps even where the
    rounded root coincides with its pole.  The intervals of a row hold no pole
    and are disjoint, so the N roots certified are all the roots of the
    degree-N polynomial prod_i (mu - d_i) f(mu), and each is real.  Returns the
    number of roots checked.
    """
    origin, offset = secular.positions(d, w, gamma)
    assert np.all(np.diff(d[origin] + offset, axis=1) >= 0)
    checked = 0
    with mpmath.workdps(60):
        poles = [mpmath.mpf(x) for x in d]
        weights = [mpmath.mpf(x) for x in w]
        for g, row_origin, row_offset in zip(gamma, origin, offset):
            if g == 0:
                assert np.array_equal(row_origin, np.arange(d.size))
                assert np.all(row_offset == 0)
                continue
            inv = 1 / mpmath.mpf(g)

            def f(mu):
                return inv + mpmath.fsum(wi / (di - mu) for di, wi in zip(poles, weights))

            intervals = []
            for o, tau in zip(row_origin, row_offset):
                assert tau != 0
                root = poles[o] + mpmath.mpf(tau)
                e = mpmath.mpf(CERTIFIED_ULPS * np.spacing(abs(tau)))
                assert e < abs(tau) and not any(root - e < p < root + e for p in poles)
                assert f(root - e) * f(root + e) < 0, (g, o, tau)
                intervals.append((root - e, root + e))
            assert all(hi < lo for (_, hi), (lo, _) in zip(intervals, intervals[1:]))
            checked += len(intervals)
    return checked


def jittered(rng, n):
    """Positions on [-2, 2], adjacent gaps at least 0.4 * 4 / n."""
    h = 4.0 / n
    return -2.0 + h * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n))


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_goldfish_roots_certified(n):
    rng = np.random.default_rng(n)
    d, w = jittered(rng, n), rng.uniform(0.5, 1.5, n)
    gamma = np.array([0.0, 1e-8, 0.01, 0.3, 3.0]) if n < 128 else np.array([0.0, 1e-6, 0.3])
    assert certify(d, w, gamma) == n * (gamma.size - 1)


@pytest.mark.parametrize("n", [2, 8, 32, 128])
def test_coth_roots_certified_up_to_huge_gamma(n):
    rng = np.random.default_rng(1000 + n)
    a, c = jittered(rng, n), rng.uniform(0.5, 1.5, n)
    z, p = np.exp(2.0 * a), c.sum()
    times = np.array([0.001, 0.3]) if n == 128 else np.array([0.0, 0.001, 0.1, 0.3, 0.6])
    gamma = np.expm1(2.0 * p * times) / p
    if n >= 32:
        assert gamma.max() > 1e15
    certify(z, c * z, gamma)


def test_clustered_poles_certified():
    rng = np.random.default_rng(5)
    d = np.concatenate([np.arange(6) * 1e-6, 1.0 + np.arange(6) * 1e-6, [3.0]])
    w = rng.uniform(0.01, 2.0, d.size)
    certify(d, w, np.array([1e-12, 1e-7, 1e-3, 1.0, 1e6, 1e15]))


def test_widely_scaled_data_certified():
    rng = np.random.default_rng(6)
    d = np.sort(rng.uniform(-1e3, 1e3, 24))
    certify(d, rng.uniform(1e-3, 1e3, 24), np.logspace(-15, 15, 7))


def roots(d, w, gamma):
    """The roots d[origin] + offset of ``secular.positions``."""
    d = np.asarray(d, dtype=float)
    origin, offset = secular.positions(d, w, gamma)
    return d[origin] + offset


def test_single_pole_is_closed_form():
    gamma = np.array([0.0, 0.5, 4.0])
    assert np.array_equal(roots([0.25], [2.0], gamma), [[0.25], [1.25], [8.25]])


def test_roots_are_eigenvalues_of_rank_one_update():
    rng = np.random.default_rng(3)
    d, w = np.sort(rng.uniform(-1.0, 1.0, 7)), rng.uniform(0.2, 2.0, 7)
    gamma = np.array([0.0, 0.05, 0.7, 9.0])
    expected = [np.linalg.eigvalsh(np.diag(d) + g * np.outer(np.sqrt(w), np.sqrt(w))) for g in gamma]
    assert np.abs(roots(d, w, gamma) - np.array(expected)).max() < 1e-13


def test_long_grid_is_solved_in_blocks_with_the_same_roots():
    rng = np.random.default_rng(4)
    d, w = jittered(rng, 64), rng.uniform(0.5, 1.5, 64)
    gamma = np.linspace(0.0, 0.3, 201)  # more rows than one block holds at N = 64
    together = roots(d, w, gamma)
    alone = np.vstack([roots(d, w, [g]) for g in gamma[::20]])
    assert np.abs(together[::20] - alone).max() < 1e-14


def test_mixed_sign_roots_are_eigenvalues_carried_from_the_nearer_pole():
    # any weight <= 0 takes the Aberth solve
    rng = np.random.default_rng(7)
    d, w = 0.5 * np.arange(1, 7) + rng.uniform(-0.1, 0.1, 6), rng.uniform(0.2, 2.0, 6)
    w[2] = -0.3
    gamma = np.array([0.0, 0.01, 0.05])
    origin, offset = secular.positions(d, w, gamma)
    assert np.array_equal(origin[0], np.arange(6)) and np.all(offset[0] == 0)
    mu = d[origin] + offset
    assert np.array_equal(origin, np.abs(mu[:, :, None] - d).argmin(axis=2))
    expected = [np.sort(np.linalg.eigvals(np.diag(d) + g * np.outer(np.ones(6), w)).real) for g in gamma[1:]]
    assert np.abs(mu[1:] - np.array(expected)).max() < 1e-14


def draw_goldfish(n, seed):
    """Mixed-sign goldfish data: positions on [-n/4, n/4], speeds in [0.05, 0.15], every third negative."""
    rng = np.random.default_rng([n, seed])
    q0 = np.sort(rng.uniform(-n / 4, n / 4, n))
    qdot0 = rng.uniform(0.05, 0.15, n)
    qdot0[::3] *= -1
    return q0, qdot0


@pytest.mark.parametrize("n, seed", [(2, 0), (3, 0), (5, 0), (8, 0), (16, 0), (24, 3), (32, 2), (64, 0), (128, 3)])
def test_mixed_sign_goldfish_roots_certified(n, seed):
    # every root real and within CERTIFIED_ULPS of its offset up to t = 0.05
    q0, qdot0 = draw_goldfish(n, seed)
    times = np.linspace(0.0, 0.05, 6 if n < 128 else 3)
    assert certify(q0, qdot0, times) == n * (times.size - 1)


@pytest.mark.parametrize("span", [2.0, 10.0, 20.0])
@pytest.mark.parametrize("n", [3, 8, 32])
def test_mixed_sign_coth_roots_certified(n, span):
    # poles z = e^{2 a} over a in [-span, span], from e^-40 to e^40 at span 20
    rng = np.random.default_rng([n, int(span)])
    a = np.linspace(-span, span, n) + rng.uniform(-0.3, 0.3, n) * span / n
    c = rng.uniform(0.5, 1.5, n)
    c[1::2] *= -1
    z, p = np.exp(2.0 * a), c.sum()
    gamma = np.expm1(2.0 * p * np.linspace(0.0, 0.01, 5)) / p
    assert certify(z, c * z, gamma) == n * (gamma.size - 1)


def test_pair_just_before_its_collision():
    # q0 = [0, 1], qdot0 = [1, -1]: x(t) = (1, t), roots 1/2 -+ sqrt(1/4 - t), which meet at t_c = 1/4
    t = 0.2499
    exact = 0.5 + np.array([-1.0, 1.0]) * np.sqrt(0.25 - t)
    assert np.abs(roots([0.0, 1.0], [1.0, -1.0], [0.1, 0.2, t])[-1] - exact).max() <= 1e-12


@pytest.mark.parametrize("t_end", [0.25 + 1e-12, 0.3, 1.0])
@pytest.mark.parametrize("points", [2, 3, 11])
def test_roots_past_the_collision_raise_complex_roots(t_end, points):
    with pytest.raises(ComplexRoots):
        secular.positions([0.0, 1.0], [1.0, -1.0], np.linspace(0.0, t_end, points))
    with pytest.raises(ComplexRoots):
        secular.positions([1.0, 2.0], [1.0, -1.0], np.linspace(0.0, 8.0 * t_end, points))


def test_roots_closer_than_the_collision_tolerance_raise():
    with pytest.raises(RootCollision, match=re.escape("position gap 0.000e+00 below")):
        secular.separated(np.array([[0.0, 1.0], [0.5, 0.5]]))
    q = np.array([[0.0, 1.0], [0.0, 2e-8]])
    assert secular.separated(q) is q


SHAPES = "d and w must be equal-length vectors and gamma a vector"
POLES = "poles d must be finite and strictly increasing"
WEIGHTS = "weights w must be finite"
GAMMA = "gamma must be finite and >= 0"
INVERSE = "1/gamma must be finite for every gamma > 0"
SPAN = "d[-1] - d[0] + gamma sum(|w|) must be finite"


@pytest.mark.parametrize("w1", [1.0, -1.0], ids=["kernel", "aberth"])
@pytest.mark.parametrize(
    "d, w0, gamma, condition",
    [
        ([0.0, 1.0, 2.0], 1.0, [0.1], SHAPES),
        ([0.0], 1.0, [[0.1]], SHAPES),
        ([0.0, np.nan], 1.0, [0.1], POLES),
        ([-np.inf, 1.0], 1.0, [0.1], POLES),
        ([0.0, 0.0], 1.0, [0.1], POLES),
        ([1.0, 0.0], 1.0, [0.1], POLES),
        ([0.0, 1.0], np.inf, [0.1], WEIGHTS),
        ([0.0, 1.0], np.nan, [0.1], WEIGHTS),
        ([0.0, 1.0], 1.0, [0.1, -1e-300], GAMMA),
        ([0.0, 1.0], 1.0, [np.inf], GAMMA),
        ([0.0, 1.0], 1.0, [np.nan], GAMMA),
        # a subnormal gamma, whose 1/gamma overflows
        ([0.0, 1.0], 1.0, [0.0, 5e-311], INVERSE),
        # an interval that holds every pole and root: its poles, or gamma
        # times the weights, overflow
        ([-1e308, 1e308], 1.0, [0.1], SPAN),
        ([0.0, 1.0], 1e300, [0.0, 1e10], SPAN),
        # the first failing condition is named
        ([1.0, 0.0], np.inf, [-0.1], POLES),
        ([0.0, 1.0], np.inf, [-0.1], WEIGHTS),
        ([0.0, 1.0], 1.0, [-0.1, 5e-311], GAMMA),
    ],
)
def test_outside_domain_names_the_failing_condition(d, w0, gamma, condition, w1):
    # one domain test for both branches of the sign test
    with pytest.raises(SecularOutOfDomain, match=f"^{re.escape(condition)}$"):
        secular.positions(d, [w0, w1], gamma)


def test_no_poles_is_outside_domain():
    with pytest.raises(SecularOutOfDomain, match=f"^{re.escape(SHAPES)}$"):
        secular.positions([], [], [0.1])


def test_zero_and_any_sign_weights_inside_domain():
    # a particle at rest (w = 0) stays at its pole, and a weight < 0 takes the
    # Aberth solve; every w > 0 the kernel, however large the grid's last gamma
    assert np.array_equal(roots([0.0, 1.0], [0.0, 1.0], [0.0, 0.5]), [[0.0, 1.0], [0.0, 1.5]])
    assert np.array_equal(roots([0.0, 1.0], [0.0, 0.0], [0.0, 0.5]), [[0.0, 1.0], [0.0, 1.0]])
    assert roots([0.0, 1.0], [1.0, -1.0], [0.0, 0.1]).shape == (2, 2)
    assert np.isfinite(roots([0.0, 1.0], [1.0, 1.0], [0.0, 0.1, 1e300])).all()
    with np.errstate(all="raise"):  # a coth clock saturated at -1/P repeats its gamma
        repeated = roots([0.0, 1.0], [1.0, -1.0], [0.0, 0.1, 0.1])
    assert np.abs(repeated[2] - repeated[1]).max() <= 1e-16
