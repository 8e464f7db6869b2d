"""Roots of the rank-one secular equation, batched over a time grid.

Every exact route of the positive-velocity flows is one eigenvalue problem
diag(d) + gamma w-weighted rank one: the goldfish positions at time t are the
eigenvalues of diag(q0) + t v v^T with v = sqrt(qdot0) (Calogero), and the coth
route's Z(t) = diag(z) + gamma z c^T with z = e^{2 a}, gamma = expm1(2 P t)/P.
Its eigenvalues are the roots mu of

    f(mu) = 1/gamma + sum_i w_i / (d_i - mu) = 0,

one in each interval (d_k, d_{k+1}) and the last in (d_{N-1}, d_{N-1} + gamma sum w).
Each root is iterated on its offset mu - d_o from the nearer pole d_o, so
small gaps keep their relative accuracy where a dense eigensolver or the
polynomial's companion matrix loses it.  The step is R.-C. Li's "middle way"
(LAPACK Working Note 89, 1994; LAPACK ``dlaed4``), and for the last root a
Newton step in the reciprocal offset.  Every step stays inside the bracket of
Bunch, Nielsen & Sorensen (Numer. Math. 31 (1978) 31); a step that leaves it
falls back to its midpoint.
"""
from __future__ import annotations

import numpy as np

from .errors import SecularNoConvergence

#: Elements of the (roots x N) work arrays processed at once; bounds the memory
#: of a long grid at large N.
_BLOCK_ELEMENTS = 1 << 17
#: A root has converged once its model step is below this fraction of its offset.
_STEP_TOL = 4.0 * np.finfo(float).eps
_MAX_ITER = 100


def secular_roots(d, w, gamma) -> np.ndarray:
    """Roots of 1/g + sum_i w_i/(d_i - mu) = 0 for each g in ``gamma``, shape (len(gamma), N).

    ``d`` strictly increasing, ``w > 0``, ``gamma >= 0`` and finite.  Row j
    is ascending, root k in [d_k, d_{k+1}); at g = 0 the roots are the poles.
    """
    d = np.asarray(d, dtype=float)
    origin, offset = secular_offsets(d, w, gamma)
    return d[origin] + offset


def domain_error(d, w, gamma) -> str | None:
    """Which condition of the kernel's domain (d, w, gamma) fails first, or None inside it.

    The domain: d and w equal-length vectors and gamma a vector; poles d
    finite and strictly increasing; weights w positive and finite; gamma
    finite and >= 0.
    """
    d = np.asarray(d, dtype=float)
    w = np.asarray(w, dtype=float)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    if d.ndim != 1 or w.shape != d.shape or gamma.ndim != 1 or d.size == 0:
        return "d and w must be equal-length vectors and gamma a vector"
    if not (np.all(np.isfinite(d)) and np.all(np.diff(d) > 0)):
        return "poles d must be finite and strictly increasing"
    if not (np.all(w > 0) and np.all(np.isfinite(w))):
        return "weights w must be positive and finite"
    if not (np.all(gamma >= 0) and np.all(np.isfinite(gamma))):
        return "gamma must be finite and >= 0"
    return None


def secular_offsets(d, w, gamma) -> tuple[np.ndarray, np.ndarray]:
    """(origin, offset) with root = d[origin] + offset, both of shape (len(gamma), N).

    The origin is the pole nearer to the root, so the offset carries the
    root's distance to it to full relative accuracy.  Raises ValueError with
    ``domain_error``'s message outside the domain.
    """
    d = np.asarray(d, dtype=float)
    w = np.asarray(w, dtype=float)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    error = domain_error(d, w, gamma)
    if error is not None:
        raise ValueError(error)
    n = d.size

    origin = np.broadcast_to(np.arange(n), (gamma.size, n)).copy()
    offset = np.zeros((gamma.size, n))
    deltas = d[None, :] - d[:, None]  # deltas[k, i] = d_i - d_k
    rows = max(1, _BLOCK_ELEMENTS // (n * n))
    live = np.flatnonzero(gamma > 0)
    for start in range(0, live.size, rows):
        block = live[start : start + rows]
        origin[block], offset[block] = _solve(deltas, w, gamma[block])
    return origin, offset


def _solve(deltas: np.ndarray, w: np.ndarray, gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Origins and offsets of all N roots for each g > 0 in ``gamma``."""
    n = w.size
    k = np.tile(np.arange(n), gamma.size)  # interval of each root
    inv_rho = np.repeat(1.0 / gamma, n)
    last = k == n - 1

    # Start interior roots at the interval midpoint and the last root at its
    # upper bound rho sum(w); rho w_{N-1} and rho sum(w) - (d_{N-1} - d_0)
    # bound it from below.
    half = np.append(0.5 * np.diag(deltas, 1), 0.0)[k]
    top = gamma * w.sum()
    tau = np.where(last, np.repeat(top, n), half)
    f, parts = _evaluate(deltas, w, inv_rho, k, k, tau)
    # The sign of f at the midpoint picks the nearer pole as the origin; the
    # midpoint's evaluation holds in either frame.
    lower = last | (f >= 0)
    origin = k + ~lower
    tau = np.where(lower, tau, -half)
    lo = np.where(lower, 0.0, -half)
    hi = np.where(lower, half, 0.0)
    lo[last] = np.maximum(gamma * w[-1], top - deltas[0, -1])
    hi[last] = top
    proposal = _step(f, parts, lower, last, tau)

    active = np.arange(k.size)
    for _ in range(_MAX_ITER):
        # converged on the model step, before the bracket can reject it, or
        # bracketed as tightly as the rounding of f allows
        t = tau[active]
        tol = _STEP_TOL * np.abs(t)
        done = (np.abs(proposal - t) <= tol) | (f == 0) | (hi[active] - lo[active] <= tol)
        inside = (proposal > lo[active]) & (proposal < hi[active])
        tau[active] = np.where(done | inside, proposal, 0.5 * (lo[active] + hi[active]))
        keep = ~done
        active, lower = active[keep], lower[keep]
        if not active.size:
            return origin.reshape(-1, n), tau.reshape(-1, n)
        t = tau[active]
        f, parts = _evaluate(deltas, w, inv_rho[active], k[active], origin[active], t)
        below = f < 0
        lo[active] = np.where(below, t, lo[active])
        hi[active] = np.where(below, hi[active], t)
        proposal = _step(f, parts, lower, last[active], t)
    raise SecularNoConvergence(f"{active.size} secular roots did not converge in {_MAX_ITER} steps")


def _evaluate(deltas, w, inv_rho, k, origin, tau):
    """r f and the parts of the local model at offsets ``tau`` from ``origin``, r = |tau|.

    Everything is scaled by r: the origin is the pole nearest to the root,
    so every u_i = r/(d_i - mu) lies in [-1, 1], and neither a root within
    1e-200 of its pole nor one beyond 1e200 under- or overflows.  psi sums
    over the poles i <= k, below the root, and phi over the poles above it.
    """
    n = w.size
    r = np.abs(tau)
    delta = deltas[origin]
    delta -= tau[:, None]  # d_i - mu; negative exactly for the poles below the root
    u = np.divide(r[:, None], delta, out=delta)
    below, above = np.minimum(u, 0.0), np.maximum(u, 0.0)
    psi, phi = below @ w, above @ w  # r psi and r phi
    dpsi = np.square(below, out=below) @ w  # r^2 psi'
    dphi = np.square(above, out=above) @ w  # r^2 phi'
    at = np.arange(k.size)
    with np.errstate(divide="ignore"):
        # (d_k - mu)/r and (d_{k+1} - mu)/r; the origin's is -1 or 1 exactly
        sk, sk1 = 1.0 / u[at, k], 1.0 / u[at, np.minimum(k + 1, n - 1)]
    return r * inv_rho + psi + phi, (r, dpsi, dphi, sk, sk1)


def _step(f, parts, lower, last, tau) -> np.ndarray:
    """The next offset: the zero of the local model, in ``tau``'s frame.

    Interior roots take Li's middle way: psi and phi are each replaced by a
    constant plus a multiple of 1/(d - mu) at their pole nearest the root,
    matching f and f'.  The model's zero between the two poles is the root
    of a quadratic in the new offset over r, taken in a cancellation-free
    form, so a root far closer to its pole than the current point is still
    found to full relative accuracy.  The last root takes Newton's step in
    the reciprocal offset 1/tau, on which f is nearly linear both near its
    pole and far beyond all poles.  A proposal that is not finite or moves
    away from the root is replaced by Newton's step in tau.
    """
    r, dpsi, dphi, sk, sk1 = parts
    dw = dpsi + dphi
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = f - sk * dpsi - sk1 * dphi
        a = (sk + sk1) * f - sk * sk1 * dw
        # origin at the lower pole (sk = -1): c x^2 - (a + 2c) x + dpsi (1 + sk1) = 0
        # for x = new offset / r; at the upper pole (sk1 = 1) the mirror image
        sign = np.where(lower, 1.0, -1.0)
        cs = sign * c
        b = a + 2.0 * cs
        kk = np.where(lower, dpsi * (1.0 + sk1), dphi * (1.0 - sk))
        scale = np.maximum(np.abs(b), np.sqrt(np.abs(cs * kk)))
        root = scale * np.sqrt(np.abs((b / scale) ** 2 - 4.0 * (cs / scale) * (kk / scale)))
        proposal = sign * r * (2.0 * kk / (b + root))
        proposal = np.where(last, tau * (dw / (dw + f)), proposal)
        newton = tau - r * (f / dw)
    bad = ~np.isfinite(proposal) | ((proposal - tau) * f > 0)
    return np.where(bad, newton, proposal)
