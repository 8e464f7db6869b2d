"""Roots of the rank-one secular equation, batched over a time grid.

Every exact route of the goldfish family and of the coth flow is one
eigenvalue problem diag(d) + gamma w-weighted rank one: the goldfish
positions at time t are the eigenvalues of diag(q0) + t v v^T with
v = sqrt(qdot0) (Calogero), and the coth route's Z(t) = diag(z) + gamma z c^T
with z = e^{2 a}, gamma = expm1(2 P t)/P.  Its eigenvalues are the roots mu of

    f(mu) = 1/gamma + sum_i w_i / (d_i - mu) = 0.

``positions`` is the one entry point of these routes.  Each root is carried
as its nearer pole d_o plus an offset mu - d_o, against the exact pole
differences, so small gaps keep their relative accuracy where a dense
eigensolver or the polynomial's companion matrix loses it.  With every weight
positive there is one root in each interval (d_k, d_{k+1}) and the last in
(d_{N-1}, d_{N-1} + gamma sum w), and the kernel solves the whole grid.  Its
step is R.-C. Li's "middle way" (LAPACK Working Note 89, 1994; LAPACK
``dlaed4``), and for the last root a Newton step in the reciprocal offset.
Every step stays inside the bracket of Bunch, Nielsen & Sorensen (Numer. Math.
31 (1978) 31); a step that leaves it falls back to its midpoint.  With a
weight <= 0 roots may meet and leave the real axis: ``_aberth`` follows them
along the grid with Aberth-Ehrlich steps in complex arithmetic (Aberth, Math.
Comp. 27 (1973) 339; Bini & Robol, J. Comput. Appl. Math. 272 (2014) 276).
"""
from __future__ import annotations

import numpy as np

from . import symfun
from .errors import ComplexRoots, RootCollision, SecularNoConvergence, SecularOutOfDomain

#: Elements of the (roots x N) work arrays processed at once; bounds the memory
#: of a long grid at large N.
_BLOCK_ELEMENTS = 1 << 17
#: A root has converged once its model step is below this fraction of its offset.
_STEP_TOL = 4.0 * np.finfo(float).eps
#: Aberth roots started far from a complex pair (one coarse step past a collision) took up to 300.
_MAX_ITER = 1000
#: Aberth roots start this fraction of their offset off the real axis, on alternate sides.
_NUDGE = 2.0**-20
#: A converged Aberth root is real where its imaginary part is at most this
#: fraction of its offset; a pair nearer the axis is within rounding of meeting.
_IMAG_RTOL = np.sqrt(np.finfo(float).eps)


def positions(d, w, gamma) -> tuple[np.ndarray, np.ndarray]:
    """(origin, offset) of the roots at each gamma, each of shape (len(gamma), N).

    Root k at gamma_j is d[origin[j, k]] + offset[j, k], carried from its
    nearer pole, so the offset holds the root's distance to it to the
    accuracy of the solver; rows ascend, and at gamma = 0 the roots are the
    poles.  The one domain test (``_domain``) runs first; then the one sign
    test: with every w > 0 the kernel solves the grid, and otherwise
    ``_aberth``, which raises ComplexRoots at the first gamma whose roots are
    not all real.
    """
    d, w = np.asarray(d, dtype=float), np.asarray(w, dtype=float)
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    _domain(d, w, gamma)
    origin = np.broadcast_to(np.arange(d.size), (gamma.size, d.size)).copy()
    offset = np.zeros((gamma.size, d.size))
    (_kernel if np.all(w > 0) else _aberth)(d, w, gamma, origin, offset)
    return origin, offset


def separated(q: np.ndarray) -> np.ndarray:
    """``q``, rows of ascending positions; RootCollision where two of a row lie closer than COLLISION_TOL."""
    gap = np.diff(q, axis=-1).min() if q.shape[-1] > 1 else np.inf
    if gap < symfun.COLLISION_TOL:
        raise RootCollision(f"position gap {gap:.3e} below collision tolerance {symfun.COLLISION_TOL:.3e}")
    return q


def _domain(d, w, gamma) -> None:
    """SecularOutOfDomain naming the first condition of the domain that fails.

    Tied poles are ones that underflowed to the same value.  By Gershgorin's
    theorem on diag(d) + gamma 1 w^T, every pole and root lies in an interval
    of width d[-1] - d[0] + gamma sum(|w|).
    """
    if d.ndim != 1 or w.shape != d.shape or gamma.ndim != 1 or d.size == 0:
        raise SecularOutOfDomain("d and w must be equal-length vectors and gamma a vector")
    with np.errstate(over="ignore", divide="ignore"):
        if not (np.all(np.isfinite(d)) and np.all(np.diff(d) > 0)):
            raise SecularOutOfDomain("poles d must be finite and strictly increasing")
        if not np.all(np.isfinite(w)):
            raise SecularOutOfDomain("weights w must be finite")
        if not (np.all(gamma >= 0) and np.all(np.isfinite(gamma))):
            raise SecularOutOfDomain("gamma must be finite and >= 0")
        if not np.all(np.isfinite(1.0 / gamma[gamma > 0])):
            raise SecularOutOfDomain("1/gamma must be finite for every gamma > 0")
        if not np.all(np.isfinite((d[-1] - d[0]) + gamma * np.abs(w).sum())):
            raise SecularOutOfDomain("d[-1] - d[0] + gamma sum(|w|) must be finite")


def _kernel(d, w, gamma, origin, offset) -> None:
    """The rows of (origin, offset) with gamma > 0 for every w > 0, by blocks of the grid."""
    deltas = d[None, :] - d[:, None]  # deltas[k, i] = d_i - d_k
    rows = max(1, _BLOCK_ELEMENTS // (d.size * d.size))
    live = np.flatnonzero(gamma > 0)
    for start in range(0, live.size, rows):
        block = live[start : start + rows]
        origin[block], offset[block] = _solve(deltas, w, gamma[block])


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


def _aberth(d, w, gamma, origin, offset) -> None:
    """The rows of (origin, offset) with gamma > 0 in turn, for weights of any sign.

    The roots are those of p(mu) = prod_i (mu - d_i) f(mu); a pole of zero
    weight is one at every gamma.  Each other root starts from the previous
    gamma's, moved on by its rate (w at gamma = 0) and nudged off the real
    axis, and takes Aberth-Ehrlich steps: Newton's correction 1/(p'/p),
    p'/p = sum_i 1/(mu - d_i) + f'/f, deflated by the sum of 1/(mu_k - mu_j)
    over the other roots.  Each step re-anchors a root at its nearer pole and
    evaluates f there as ``_evaluate`` does, scaled by the offset's modulus
    r.  A root stops once |f| is within the rounding of its terms: near a
    double root its step stays far above a few ulps of the offset.
    """
    deltas = d[None, :] - d[:, None]  # deltas[k, i] = d_i - d_k
    tol = 2.0 * (d.size + 2) * np.finfo(float).eps
    anchor, tau, rate, previous = np.arange(d.size), np.zeros(d.size), w, 0.0
    side = np.where(np.arange(d.size) % 2, -1.0, 1.0)
    for j in np.flatnonzero(gamma > 0):
        start = tau + (gamma[j] - previous) * rate
        o, x, active = anchor.copy(), start + 1j * _NUDGE * side * np.abs(start), np.flatnonzero(w)
        with np.errstate(all="ignore"):
            for _ in range(_MAX_ITER):
                near = np.abs(deltas[o[active]] - x[active].real[:, None]).argmin(axis=1)
                x[active] -= deltas[o[active], near]
                o[active] = near
                t, delta = x[active], deltas[near]
                r = np.abs(t)
                u = r[:, None] / (delta - t[:, None])  # r/(d_i - mu)
                rf = r / gamma[j] + u @ w  # r f
                size = r / gamma[j] + np.abs(u) @ np.abs(w)
                rdf = np.square(u) @ w  # r^2 f'
                gaps = t[:, None] - x[None, :] - delta[:, o]  # mu_k - mu_j
                gaps[np.arange(active.size), active] = 1.0
                repel = (r[:, None] / gaps).sum(axis=1) - r  # r sum_{j != k} 1/(mu_k - mu_j)
                step = r / (rdf / rf - u.sum(axis=1) - repel)
                x[active] = np.where(np.isfinite(step), t - step, t)
                active = active[np.abs(rf) > tol * size]
                if not active.size:
                    break
            else:
                raise SecularNoConvergence(f"{active.size} secular roots did not converge in {_MAX_ITER} steps")
        if np.any(np.abs(x.imag) > _IMAG_RTOL * np.abs(x)):
            raise ComplexRoots(f"a pair of roots left the real axis at gamma = {gamma[j]:.6g}: "
                               f"imaginary part {np.abs(x.imag).max():.3e}")
        if gamma[j] != previous:  # the coth clock saturates at -1/P for P < 0
            rate = (x.real - tau + deltas[anchor, o]) / (gamma[j] - previous)
        anchor, tau, previous = o, x.real, gamma[j]
        order = np.argsort(d[anchor] + tau, kind="stable")
        origin[j], offset[j] = anchor[order], tau[order]
