"""The in-house integrator, root finder and rank-one exponential against scipy.

scipy is a test-only dependency: ``rk45.solve_ivp`` must reproduce
``scipy.integrate.solve_ivp(method="RK45")`` bit for bit (grid, states,
status, message, RHS evaluations and event time), and ``rk45.brentq`` must
reproduce ``scipy.optimize.brentq``.  The integrator is checked at its one
call site, ``dynamics.integrate`` (through which ``reduction.frame_flow``
also runs), by a wrapper that runs both on the arguments the package passes.
"""
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq as scipy_brentq

from conftest import Q0, SYSTEM_CONFIGS, V0
from goldfishlab import cli, dynamics, reduction, rk45
from goldfishlab.errors import IntegrationError
from goldfishlab.hyperbolic import _rank_one_exp


def scipy_events(event):
    """``event`` as scipy's terminal event with direction -1, in scipy's ``events`` form."""
    if event is None:
        return None

    def terminal(t, y):
        return event(t, y)

    terminal.terminal, terminal.direction = True, -1.0
    return [terminal]


def assert_same_solution(ours, ref):
    assert np.array_equal(ours.t, ref.t)
    assert np.array_equal(ours.y, ref.y)
    assert ours.status == ref.status
    assert ours.message == ref.message
    assert ours.nfev == ref.nfev
    if ref.status == 1:
        assert [[ours.t_last]] == [list(te) for te in ref.t_events]


def checked_solve_ivp(statuses):
    """A drop-in for ``rk45.solve_ivp`` that also runs scipy and compares."""

    def run(fun, t_span, y0, rtol, atol, t_eval, event=None):
        ours = rk45.solve_ivp(fun, t_span, y0, rtol, atol, t_eval, event)
        ref = scipy_solve_ivp(fun, t_span, y0, method="RK45", rtol=rtol, atol=atol,
                              t_eval=t_eval, events=scipy_events(event))
        assert_same_solution(ours, ref)
        statuses.append(ours.status)
        return ours

    return run


ODE_CONFIGS = {name: fields for name, (fields, _) in SYSTEM_CONFIGS.items() if cli.SPECS[name].build}


# 1e-12 with the default abs_tol 1e-12 is verify's TIGHT setting
@pytest.mark.parametrize("rel_tol", [1e-10, 1e-6, 1e-12])
@pytest.mark.parametrize("system", sorted(ODE_CONFIGS))
def test_integrate_matches_scipy_on_every_system(monkeypatch, system, rel_tol):
    statuses = []
    monkeypatch.setattr(dynamics, "solve_ivp", checked_solve_ivp(statuses))
    cfg = cli.RunConfig.from_dict({"system": system, "N": 3, "t_end": 0.4, "output_points": 9,
                                   "rel_tol": rel_tol, **ODE_CONFIGS[system]})
    ode, state0 = cli.SPECS[system].build(cfg)
    dynamics.integrate(ode, state0, cfg.t_end, cfg.integrator_config(), cfg.output_points)
    assert statuses == [0]


def test_goldfish_collisions_match_scipy(monkeypatch):
    """Approaching pairs end at the gap event or a step underflow."""
    statuses = []
    monkeypatch.setattr(dynamics, "solve_ivp", checked_solve_ivp(statuses))
    rng = np.random.default_rng(7)
    for _ in range(12):
        n = int(rng.integers(2, 8))
        q0 = np.sort(rng.uniform(-2, 2, n)) + 0.2 * np.arange(n)
        qdot0 = rng.normal(0.0, 2.0, n)
        gap = float(rng.choice([0.0, 1e-6, 1e-2]))
        config = dynamics.IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12, collision_gap=gap)
        try:
            dynamics.integrate(dynamics.GoldfishSystem(n), dynamics.GoldfishState(q0, qdot0), 2.0, config, 41)
        except IntegrationError:  # gap event or step underflow
            pass
    assert statuses.count(1) >= 3 and -1 in statuses


def test_frame_flow_matches_scipy(monkeypatch):
    statuses = []
    monkeypatch.setattr(dynamics, "solve_ivp", checked_solve_ivp(statuses))
    reduction.frame_flow(Q0, V0, 0.5, None, 4)
    assert statuses == [0]


def test_rtol_below_100_eps_is_clamped_like_scipy():
    def fun(t, y):
        return np.array([y[1], -y[0]])

    grid = np.linspace(0.0, 1.0, 5)
    with pytest.warns(UserWarning, match="rtol.*too small"):
        ours = rk45.solve_ivp(fun, (0.0, 1.0), [1.0, 0.0], 1e-16, 1e-12, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ref = scipy_solve_ivp(fun, (0.0, 1.0), [1.0, 0.0], method="RK45", rtol=1e-16,
                              atol=1e-12, t_eval=grid)
    assert_same_solution(ours, ref)


def test_step_size_underflow_matches_scipy():
    """y' = y^2 blows up at t = 1, so the step size underflows just before it."""

    def fun(t, y):
        return y * y

    grid = np.linspace(0.0, 2.0, 11)
    ours = rk45.solve_ivp(fun, (0.0, 2.0), [1.0], 1e-8, 1e-12, grid)
    ref = scipy_solve_ivp(fun, (0.0, 2.0), [1.0], method="RK45", rtol=1e-8, atol=1e-12,
                          t_eval=grid)
    assert ours.status == -1
    assert ours.message == "Required step size is less than spacing between numbers."
    assert_same_solution(ours, ref)


def _oscillator(t, y):
    return np.array([y[1], -y[0]])


@pytest.mark.parametrize("fun, y0, t_end, event", [
    (lambda t, y: y * y, [1.0], 2.0, None),  # underflow just before the blow-up at t = 1
    (_oscillator, [1.0, 0.0], 3.0, lambda t, y: y[0]),  # terminal event at t = pi / 2
    (_oscillator, [1.0, 0.0], 1.0, None),  # reaches t_end
])
def test_last_state_is_scipys_last_step(fun, y0, t_end, event):
    """t_last, y_last: where scipy, run without an output grid, puts its last column."""
    ours = rk45.solve_ivp(fun, (0.0, t_end), y0, 1e-8, 1e-12, [0.0, t_end], event)
    ref = scipy_solve_ivp(fun, (0.0, t_end), y0, method="RK45", rtol=1e-8, atol=1e-12,
                          events=scipy_events(event))
    assert ours.status == ref.status
    assert ours.t_last == ref.t[-1]
    assert np.array_equal(ours.y_last, ref.y[:, -1])


def test_rhs_error_propagates_unchanged():
    def fun(t, y):
        if t > 0.5:
            raise ValueError("stage rejected")
        return -y

    with pytest.raises(ValueError, match="^stage rejected$"):
        rk45.solve_ivp(fun, (0.0, 1.0), [1.0], 1e-8, 1e-12, [0.0, 1.0])


def test_brentq_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(3)
    for a3, b3, c3 in rng.normal(size=(200, 3)):
        def f(x):
            return (x - a3) ** 3 + b3 * np.sin(c3 * x)

        for lo, hi in [(-1.0, 1.0), (-3.0, 2.5)]:
            try:
                ref = scipy_brentq(f, lo, hi, xtol=4 * rk45.EPS, rtol=4 * rk45.EPS)
            except ValueError:
                with pytest.raises(ValueError, match="different signs"):
                    rk45.brentq(f, lo, hi)
                continue
            ours = rk45.brentq(f, lo, hi)
            assert np.float64(ours).tobytes() == np.float64(ref).tobytes()


def _exact_rank_one_exp(c_vec, s):
    """e^{s 1 c^T} in 60-digit decimal arithmetic, rounded to doubles."""
    with localcontext() as ctx:
        ctx.prec = 60
        c = [Decimal(float(x)) for x in c_vec]
        p = sum(c)
        gamma = ((Decimal(s) * p).exp() - 1) / p
        n = len(c)
        return np.array([[float((i == j) + gamma * c[j]) for j in range(n)] for i in range(n)])


def test_rank_one_exp_matches_expm_and_exact_arithmetic():
    rng = np.random.default_rng(5)
    for k in range(300):
        n = int(rng.integers(1, 9))
        c = rng.normal(size=n)
        if k % 2:
            c = np.abs(c) + 0.1  # positive velocities, as on the coth routes
        # where ||s L|| <= 1, scaling and squaring in expm is accurate to a few ulps
        s = rng.uniform(0.0, 1.0) / (n * np.abs(c).max())
        closed = _rank_one_exp(c, float(np.sum(c)), s / 2.0)
        reference = expm(s * np.tile(c, (n, 1)))
        assert np.abs(closed - reference).max() <= 1e-14 * np.abs(reference).max()
        # large s P, where expm itself drifts to about 1e-11: exact arithmetic decides
        s = float(rng.uniform(0.0, 2.0))
        closed = _rank_one_exp(c, float(np.sum(c)), s / 2.0)
        exact = _exact_rank_one_exp(c, s)
        assert np.abs(closed - exact).max() <= 1e-14 * np.abs(exact).max()
