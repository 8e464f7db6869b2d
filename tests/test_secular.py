import re

import mpmath
import numpy as np
import pytest

from goldfishlab import secular
from goldfishlab.errors import ComplexRoots, NonRealSpectrum, SecularOutOfDomain

#: half-width of the certified interval around each offset, in units in the
#: last place of the offset itself
CERTIFIED_ULPS = 32


def certify(d, w, gamma):
    """Check each root by a sign change of f across [root - e, root + e] at 50 digits.

    The root is d[origin] + offset taken exactly, so the certificate holds for
    the offset to a relative accuracy of CERTIFIED_ULPS ulps even where the
    rounded root coincides with its pole.  Returns the number of roots checked.
    """
    origin, offset = secular.positions(d, w, gamma, "flat_exact")
    assert np.all(np.diff(d[origin] + offset, axis=1) >= 0)
    checked = 0
    with mpmath.workdps(50):
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

            for o, tau in zip(row_origin, row_offset):
                assert tau != 0
                root = poles[o] + mpmath.mpf(tau)
                e = mpmath.mpf(CERTIFIED_ULPS * np.spacing(abs(tau)))
                assert f(root - e) < 0 < f(root + e), (g, o, tau)
                checked += 1
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


def roots(d, w, gamma, route="flat_exact"):
    """The roots d[origin] + offset of ``secular.positions``."""
    d = np.asarray(d, dtype=float)
    origin, offset = secular.positions(d, w, gamma, route)
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


@pytest.mark.parametrize("route", ["flat_exact", "s_exact", "z_eigen"])
def test_mixed_sign_roots_are_eigenvalues_carried_from_the_nearer_pole(route):
    # any weight <= 0 takes the route's per-point form at each gamma > 0
    rng = np.random.default_rng(7)
    d, w = 0.5 * np.arange(1, 7) + rng.uniform(-0.1, 0.1, 6), rng.uniform(0.2, 2.0, 6)
    w[2] = -0.3
    gamma = np.array([0.0, 0.01, 0.05])
    origin, offset = secular.positions(d, w, gamma, route)
    assert np.array_equal(origin[0], np.arange(6)) and np.all(offset[0] == 0)
    mu = d[origin] + offset
    assert np.array_equal(origin, np.abs(mu[:, :, None] - d).argmin(axis=2))
    expected = [np.sort(np.linalg.eigvals(np.diag(d) + g * np.outer(np.ones(6), w)).real) for g in gamma[1:]]
    # the companion matrix of the Vieta forms loses digits: 1.6e-12 here
    assert np.abs(mu[1:] - np.array(expected)).max() < 1e-11


def test_per_point_forms_keep_their_typed_errors():
    # the pair q0 = [0, 1], qdot0 = [1, -1] meets at t = 1/4
    with pytest.raises(ComplexRoots):
        secular.positions([0.0, 1.0], [1.0, -1.0], [0.1, 1.0], "flat_exact")
    with pytest.raises(NonRealSpectrum):
        secular.positions([1.0, 2.0], [1.0, -1.0], [0.1, 2.0], "z_eigen")


SHAPES = "d and w must be equal-length vectors and gamma a vector"
POLES = "poles d must be finite and strictly increasing"
POSITIVE = "poles d must be positive normal numbers"
WEIGHTS = "weights w must be finite"
GAMMA = "gamma must be finite and >= 0"


@pytest.mark.parametrize(
    "d, w, gamma, route, condition",
    [
        ([0.0, 1.0], [1.0], [0.1], "flat_exact", SHAPES),
        ([], [], [0.1], "flat_exact", SHAPES),
        ([0.0, 1.0], [1.0, 1.0], [[0.1]], "flat_exact", SHAPES),
        ([0.0, np.nan], [1.0, 1.0], [0.1], "flat_exact", POLES),
        ([-np.inf, 1.0], [1.0, 1.0], [0.1], "flat_exact", POLES),
        ([0.0, 0.0], [1.0, 1.0], [0.1], "flat_exact", POLES),
        ([1.0, 0.0], [1.0, 1.0], [0.1], "flat_exact", POLES),
        # the coth routes' poles are e^{2 a}: one that underflowed to 0 or to a subnormal
        ([0.0, 1.0], [1.0, 1.0], [0.1], "s_exact", POSITIVE),
        ([0.0, 1.0], [1.0, -1.0], [0.1], "z_eigen", POSITIVE),
        ([5e-324, 1.0], [1.0, 1.0], [0.1], "s_exact", POSITIVE),
        ([0.0, 1.0], [np.inf, 1.0], [0.1], "flat_exact", WEIGHTS),
        ([0.0, 1.0], [np.nan, -1.0], [0.1], "flat_exact", WEIGHTS),
        ([0.0, 1.0], [1.0, 1.0], [0.1, -1e-300], "flat_exact", GAMMA),
        ([0.0, 1.0], [1.0, -1.0], [np.inf], "flat_exact", GAMMA),
        ([0.0, 1.0], [1.0, 1.0], [np.nan], "flat_exact", GAMMA),
        # the data each branch builds: the kernel's bracket gamma sum(w) of
        # the last root, or the per-point form's data at every gamma
        ([0.0, 1.0], [1e300, 1e300], [0.0, 1e10], "flat_exact", "gamma sum(w) must be finite"),
        ([0.0, 1e300], [1.0, -1e300], [0.0, 1e10], "flat_exact", "x(0) + gamma b must be finite"),
        ([1.0, 2.0], [1.0, -1e300], [0.0, 1e10], "z_eigen", "d + gamma w must be finite"),
        # the coth routes' roots are e^{2 q} too
        ([1.0, 2.0], [-3.0, 1.0], [0.0, 1.0], "s_exact", "smallest root -1.303e+00 <= 0"),
        # the first failing condition is named
        ([1.0, 0.0], [-1.0, np.inf], [-0.1], "flat_exact", POLES),
        ([0.0, 1.0], [np.inf, 1.0], [-0.1], "s_exact", POSITIVE),
        ([0.0, 1.0], [np.inf, 1.0], [-0.1], "flat_exact", WEIGHTS),
    ],
)
def test_outside_domain_names_the_failing_condition(d, w, gamma, route, condition):
    with pytest.raises(SecularOutOfDomain, match=f"^{re.escape(condition)}$"):
        secular.positions(d, w, gamma, route)


def test_zero_and_any_sign_weights_inside_domain():
    # a particle at rest (w = 0) or a weight < 0 takes the per-point form;
    # every w > 0 the kernel, however large the grid's last gamma
    assert roots([0.0, 1.0], [0.0, 1.0], [0.0, 0.5]).shape == (2, 2)
    assert roots([0.0, 1.0], [1.0, -1.0], [0.0, 0.1]).shape == (2, 2)
    assert np.isfinite(roots([0.0, 1.0], [1.0, 1.0], [0.0, 0.1, 1e300])).all()
