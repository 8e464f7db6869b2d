"""Adaptive Dormand-Prince 5(4) integration with dense output and a terminal event.

An operation-for-operation copy of ``scipy.integrate.solve_ivp`` with
``method="RK45"``, restricted to what its one caller, ``dynamics.integrate``,
passes: forward time, a real state, scalar tolerances, an increasing output
grid ``t_eval`` and at most one terminal event that fires on a downward zero
crossing.  The caller guarantees these, so the arguments are not re-checked
here.  It keeps scipy's bits, ``nfev`` and messages, so the package needs
numpy only at run time; the tests pin it against scipy.  It departs from
scipy only at a right-hand side that is not finite at the initial state,
which it refuses where scipy's step loop would go on with a NaN step.

Which operations carry scipy's bits: the stage sums ``np.dot(K[:s].T, a_s)``
and the ``B`` and ``E`` dots stay the same BLAS calls, and the error norm is
sqrt(x . x) / sqrt(n), which is how ``np.linalg.norm`` computes a 1-d norm.
The rest of the step loop (step sizes, the step floor, event values and the
search of the output grid) runs on Python floats, whose IEEE arithmetic
gives numpy's float64 results without its per-call overhead.

- Dormand & Prince, J. Comput. Appl. Math. 6 (1980) 19: the 5(4) pair.
- Shampine, Math. Comp. 46 (1986) 135: the quartic dense output.
- Hairer, Norsett & Wanner, *Solving ODEs I*, Sec. II.4: the initial step,
  the RMS error norm and the step-size factors.
- Brent, *Algorithms for Minimization without Derivatives* (1973), ch. 4:
  the event time, as in scipy's C ``brentq``.
"""
from __future__ import annotations

import bisect
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import IntegrationError

EPS = np.finfo(float).eps
MIN_RTOL = 100 * EPS  # smaller rtol values are raised to this, as scipy does
SAFETY = 0.9  # multiplies the step size predicted from the error estimate
MIN_FACTOR = 0.2  # smallest allowed step-size decrease
MAX_FACTOR = 10  # largest allowed step-size increase
ERROR_EXPONENT = -1 / 5  # -1 / (error estimator order + 1)
MESSAGES = {
    0: "The solver successfully reached the end of the integration interval.",
    1: "A termination event occurred.",
    -1: "Required step size is less than spacing between numbers.",
}

C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656],
])
B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525, 1/40])
# dense-output coefficients for Shampine's optimum c_6
P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608, -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933, 87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304, -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408, 701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423],
])


class Solution(NamedTuple):
    """Grid times ``t``, states ``y`` (one column per time) and how the run ended.

    ``status`` is 0 when ``t_span`` was reached, 1 when the terminal event
    fired and -1 when the step size underflowed.  ``t_last`` and ``y_last``
    are where the run stopped: the end of the last accepted step, or the
    event time and the dense-output state there.
    """

    t: np.ndarray
    y: np.ndarray
    status: int
    message: str
    nfev: int
    t_last: float
    y_last: np.ndarray


def _rms(x: np.ndarray) -> float:
    """Root-mean-square norm, the error norm of the step control.

    ``np.linalg.norm`` of a real 1-d array is sqrt(x . x), so this is scipy's
    ``norm(x) / x.size ** 0.5`` bit for bit.
    """
    return math.sqrt(x.dot(x)) / x.size ** 0.5


def _initial_step(fun, t0, y0, t_bound, f0, rtol, atol):
    """First step size from one explicit Euler probe (Hairer, Norsett & Wanner, II.4)."""
    interval_length = abs(t_bound - t0)
    scale = atol + np.abs(y0) * rtol
    # numpy scalars: an infinite slope then divides to inf or nan as in scipy
    # instead of raising ZeroDivisionError
    d0 = np.float64(_rms(y0 / scale))
    d1 = np.float64(_rms(f0 / scale))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, interval_length)
    f1 = fun(t0 + h0, y0 + h0 * f0)
    d2 = np.float64(_rms((f1 - f0) / scale)) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return float(min(100 * h0, h1, interval_length))


def _step(f, t, y, f_cur, h_abs, tf, rtol, atol, K, stages):
    """One accepted step from t, rejecting and shrinking trial steps as needed.

    Returns (t_new, y_new, f_new, next step size), or None once the step size
    falls below 10 ulps of t.  The stages of the accepted step stay in K for
    the dense output; ``stages`` holds the views of K the step's dots read.
    """
    k_stages, k_b, k_e = stages
    min_step = 10 * abs(math.nextafter(t, math.inf) - t)
    if h_abs < min_step:
        h_abs = min_step
    step_rejected = False
    while True:
        if h_abs < min_step:
            return None
        t_new = t + h_abs
        if t_new > tf:
            t_new = tf
        h = t_new - t
        h_abs = abs(h)
        K[0] = f_cur
        for s, k_s, a_s, c_s in k_stages:
            K[s] = f(t + c_s * h, y + np.dot(k_s, a_s) * h)
        y_new = y + h * np.dot(k_b, B)
        f_new = f(t + h, y_new)
        K[-1] = f_new
        scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
        error_norm = _rms(np.dot(k_e, E) * h / scale)
        if error_norm < 1:
            if error_norm == 0:
                factor = MAX_FACTOR
            else:
                factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            if step_rejected:
                factor = min(1, factor)
            return t_new, y_new, f_new, h_abs * factor
        h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        step_rejected = True


def _dense_output(t_old, t, y_old, K):
    """The quartic interpolant over the step [t_old, t]."""
    Q = K.T.dot(P)
    h = t - t_old

    def sol(tq):
        tq = np.asarray(tq)
        x = (tq - t_old) / h
        if tq.ndim == 0:
            return h * np.dot(Q, np.cumprod(np.tile(x, 4))) + y_old
        return h * np.dot(Q, np.cumprod(np.tile(x, (4, 1)), axis=0)) + y_old[:, None]

    return sol


def solve_ivp(fun, t_span, y0, rtol, atol, t_eval, event=None) -> Solution:
    """Integrate y' = fun(t, y) over ``t_span`` and sample the solution at ``t_eval``.

    ``event`` is None or a callable ``event(t, y)``; the run stops at the
    first step over which it goes from >= 0 to <= 0 (scipy's terminal event
    with direction -1), at the root that Brent's method finds in that step.
    An ``rtol`` below 100 eps is raised to 100 eps with a UserWarning.
    A right-hand side that is not finite at the initial state raises
    IntegrationError (``time`` t0, no ``partial``), where scipy would go on;
    it is evaluated with floating-point warnings off.  Exceptions raised by
    ``fun`` propagate unchanged.
    """
    t0, tf = map(float, t_span)
    t_eval = np.asarray(t_eval)
    y = np.asarray(y0).astype(float, copy=False)
    if not np.isfinite(y).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if rtol < MIN_RTOL:
        warnings.warn("At least one element of `rtol` is too small. "
                      f"Setting `rtol = np.maximum(rtol, {MIN_RTOL})`.", stacklevel=2)
        rtol = MIN_RTOL
    nfev = 0

    def f(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(fun(t, y), dtype=float)

    t = t0
    # a non-finite slope at the start gives a NaN first step, on which the
    # step loop never ends
    with np.errstate(all="ignore"):
        f_cur = f(t, y)
    if not np.isfinite(f_cur).all():
        raise IntegrationError(f"right-hand side is not finite at t = {t:.6g}", time=t)
    # at a huge but finite start the initial step's norms overflow to inf;
    # the step that follows is scipy's, which only warns there
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        h_abs = _initial_step(f, t, y, tf, f_cur, rtol, atol)
    K = np.empty((7, y.size))
    stages = ([(s, K[:s].T, A[s, :s], float(C[s])) for s in range(1, 6)], K[:-1].T, K.T)
    grid = t_eval.tolist()
    g = None if event is None else event(t, y)
    ts, ys = [], []
    t_eval_i = 0
    status = None
    while status is None:
        step = _step(f, t, y, f_cur, h_abs, tf, rtol, atol, K, stages)
        if step is None:
            status = -1
            break
        t_old, y_old = t, y
        t, y, f_cur, h_abs = step
        if t - tf >= 0:
            status = 0

        sol = None
        if event is not None:
            g_new = event(t, y)
            if g >= 0 and g_new <= 0:
                sol = _dense_output(t_old, t, y_old, K)
                t = brentq(lambda tq: event(tq, sol(tq)), t_old, t)
                y = sol(t)
                status = 1
            g = g_new
        # grid points up to and including t
        t_eval_i_new = bisect.bisect_right(grid, t)
        if t_eval_i_new > t_eval_i:
            if sol is None:
                sol = _dense_output(t_old, t, y_old, K)
            t_eval_step = t_eval[t_eval_i:t_eval_i_new]
            ts.append(t_eval_step)
            ys.append(sol(t_eval_step))
            t_eval_i = t_eval_i_new

    return Solution(
        t=np.hstack(ts) if ts else np.empty(0),
        y=np.hstack(ys) if ys else np.empty((y.size, 0)),
        status=status,
        message=MESSAGES[status],
        nfev=nfev,
        t_last=t,
        y_last=y,
    )


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0


def brentq(f, xa, xb) -> float:
    """A root of f in [xa, xb] by Brent's method, a line-by-line port of scipy's C ``brentq``.

    Uses scipy's default tolerances, xtol = rtol = 4 eps, and at most 100
    iterations.  f(xa) and f(xb) must differ in sign; a NaN value of f
    raises ValueError.
    """
    xtol = rtol = 4 * EPS
    maxiter = 100

    def fx(x):
        value = f(x)
        if np.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return float(value)

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")
